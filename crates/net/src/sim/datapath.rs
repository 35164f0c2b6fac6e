//! The datapath part of [`NetSim`] — the port table, switches, hosts,
//! transmitter pause state, the flow arena, the frame slab, link state,
//! armed PFC faults, the packet RNG and ids — and the switch-side
//! handlers (arrivals, buffer admission, egress arbitration, PFC).
//! [`Datapath::build`] derives what a frame does not carry. The static
//! pre-check and the deadlock detector read a `&Datapath` and nothing
//! else of the simulator.

use pfcsim_simcore::error::Error;
use pfcsim_simcore::event::{EventId, EventQueue};
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, LinkId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::ForwardingTables;

use super::{is_meaningful, Ev, NetSim};
use crate::bdg::RxQueue;
use crate::config::{PauseMode, PfcConfig, SimConfig};
use crate::dcqcn::DcqcnConfig;
use crate::faults::FaultAction;
use crate::flow::{Demand, FlowSpec};
use crate::host::{FlowRt, Host};
use crate::packet::{Frame, Packet, PfcFrame, PfcOp, PFC_FRAME_SIZE};
use crate::stats::{FlowStats, PauseKey, PauseLog};
use crate::switch::{InFlight, Ingress, QPkt, Switch, TxPause};
use crate::timely::TimelyConfig;
use crate::trace::{DropReason, TraceEvent};

/// Static per-port link facts, precomputed from the topology.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortInfo {
    pub peer: NodeId,
    pub peer_port: PortNo,
    pub rate: BitRate,
    pub delay: SimDuration,
    pub link: LinkId,
    /// `link`'s number among the links joining this node to `peer`
    /// (`Topology::link_index`): the `link` of a [`PauseKey`].
    pub link_index: u32,
    /// `rate.serialization_time(cfg.default_packet_size)`, cached because
    /// the u128 division behind `serialization_time` is a per-packet cost
    /// on the datapath and almost every frame is default-sized.
    pub ser_default: SimDuration,
}

/// The `Copy` subset of a [`FlowSpec`], extracted by [`Datapath::lite`]
/// for per-event paths so they never clone the spec (whose `route` owns
/// heap memory).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecLite {
    pub(crate) id: FlowId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) priority: Priority,
    pub(crate) demand: Demand,
    pub(crate) packet_size: Option<Bytes>,
    pub(crate) ttl: u8,
}

/// The dense flow arena: one row per registered flow, in registration
/// order, across parallel vectors. Every hot-path lookup goes `FlowId` →
/// `map` → row.
#[derive(Debug, Default)]
pub(crate) struct FlowArena {
    /// Flow specs.
    pub(crate) spec: Vec<FlowSpec>,
    /// Runtime flow state.
    pub(crate) rt: Vec<FlowRt>,
    /// Hot-path per-flow counters; folded into `stats.flows` when the run
    /// finishes (entries only for touched flows).
    pub(crate) stats: Vec<FlowStats>,
    /// Whether the row's counters were ever touched.
    pub(crate) touched: Vec<bool>,
    /// Raw `FlowId` value → row (`u32::MAX` = unregistered).
    pub(crate) map: Vec<u32>,
    /// Pinned egress ports: `pinned[row][node]` (`u16::MAX` = none); an
    /// empty vector for table-routed flows.
    pub(crate) pinned: Vec<Vec<u16>>,
}

impl FlowArena {
    /// Append a validated flow with its pinned-port row.
    pub(crate) fn push(&mut self, spec: FlowSpec, pin: Vec<u16>) {
        let raw = spec.id.0 as usize;
        if self.map.len() <= raw {
            self.map.resize(raw + 1, u32::MAX);
        }
        self.map[raw] = self.spec.len() as u32;
        self.pinned.push(pin);
        self.rt.push(FlowRt::default());
        self.stats.push(FlowStats::default());
        self.touched.push(false);
        self.spec.push(spec);
    }
}

/// Payloads of in-flight `Ev::Arrive` events, indexed by the event's
/// `frame` field. Slots recycle through `free` when the arrival is
/// handled, so the slab's high-water mark is the peak number of frames on
/// the wire.
#[derive(Debug, Default)]
pub(crate) struct FrameSlab {
    pub(crate) slots: Vec<Frame>,
    pub(crate) free: Vec<u32>,
}

impl FrameSlab {
    /// Store `frame` for an `Ev::Arrive`; returns its slot.
    pub(crate) fn alloc(&mut self, frame: Frame) -> u32 {
        match self.free.pop() {
            Some(ix) => {
                self.slots[ix as usize] = frame;
                ix
            }
            None => {
                self.slots.push(frame);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Take a frame out of the slab, releasing its slot.
    #[inline]
    pub(crate) fn take(&mut self, ix: u32) -> Frame {
        self.free.push(ix);
        self.slots[ix as usize]
    }
}

/// What a checkpoint frame carries of a [`Datapath`]: every field but
/// those [`Datapath::build`] derives.
pub(crate) struct DatapathState {
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    pub(crate) tx_pause: Vec<TxPause>,
    pub(crate) switch_pfc: Vec<Option<PfcConfig>>,
    pub(crate) host_in_flight: Vec<Option<Packet>>,
    pub(crate) frames: FrameSlab,
    pub(crate) link_up: Vec<bool>,
    pub(crate) flows: FlowArena,
    pub(crate) traced: Vec<bool>,
    pub(crate) trace_cap: usize,
    pub(crate) next_pkt_id: u64,
    pub(crate) rng: SimRng,
    pub(crate) pfc_loss: Vec<Option<f64>>,
    pub(crate) pfc_delay: Vec<Option<SimDuration>>,
    pub(crate) pause_headroom: Bytes,
    pub(crate) dcqcn_cfg: Option<DcqcnConfig>,
    pub(crate) timely_cfg: Option<TimelyConfig>,
}

impl DatapathState {
    /// The state before the first event: idle switches and hosts, every
    /// link up, nothing paused, no flow.
    pub(crate) fn fresh(topo: &Topology, cfg: &SimConfig) -> Self {
        let n_nodes = topo.node_count();
        let n_ports: usize = topo.nodes().iter().map(|n| topo.ports(n.id).len()).sum();
        DatapathState {
            switches: (topo.nodes().iter())
                .map(|n| {
                    (n.kind == NodeKind::Switch).then(|| Switch::new(n.id, topo.ports(n.id).len()))
                })
                .collect(),
            hosts: (topo.nodes().iter())
                .map(|n| (n.kind == NodeKind::Host).then(|| Host::new(n.id)))
                .collect(),
            tx_pause: vec![TxPause::Open; n_ports * Priority::COUNT],
            switch_pfc: vec![None; n_nodes],
            host_in_flight: vec![None; n_nodes],
            frames: FrameSlab::default(),
            link_up: vec![true; topo.link_count()],
            flows: FlowArena::default(),
            traced: Vec::new(),
            trace_cap: 1_000_000,
            next_pkt_id: 0,
            rng: SimRng::new(cfg.seed),
            pfc_loss: vec![None; n_nodes],
            pfc_delay: vec![None; n_nodes],
            pause_headroom: Bytes::from_kb(20),
            dcqcn_cfg: None,
            timely_cfg: None,
        }
    }
}

/// The datapath part of a [`NetSim`] (see the module doc).
pub(crate) struct Datapath {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    // --- derived by `Datapath::build`; no frame carries them ---
    /// Flat struct-of-arrays port table: all ports of node `n` occupy the
    /// contiguous range `port_base[n]..port_base[n + 1]`. One bounds check
    /// and no nested-Vec pointer chase on the per-packet paths.
    pub(crate) port_info: Vec<PortInfo>,
    /// `port_base[n]` = global index of node `n`'s port 0; has
    /// `n_nodes + 1` entries so `port_base[n + 1] - port_base[n]` is the
    /// port count.
    pub(crate) port_base: Vec<u32>,
    /// Per-channel handle of the pending quanta `PauseExpire` timer,
    /// parallel to `tx_pause`. A pause refresh *reschedules* this event
    /// in place instead of piling a new timer per PFC frame onto the
    /// queue. Entries may be stale (the event already fired or was
    /// popped); `EventQueue::reschedule` rejects dead handles, so the
    /// slot self-heals on the next refresh. Event handles do not survive
    /// serialization, so this is re-keyed from the queue's live
    /// `PauseExpire` entries.
    pub(crate) pause_timer: Vec<Option<EventId>>,
    /// DRR quantum: the largest packet size among the flows (at least the
    /// default size).
    pub(crate) quantum: u64,
    // --- carried by the frame ---
    /// Struct-of-arrays pause state: transmitter `(node, port, prio)` is
    /// paused when `tx_pause[pid(node, port) * Priority::COUNT + prio]`
    /// says so (set by PFC frames from the downstream receiver). Hosts
    /// use port 0. Lives here rather than in `Egress`/`Host` so the
    /// per-packet eligibility checks walk one dense array.
    pub(crate) tx_pause: Vec<TxPause>,
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    /// Per-switch PFC override, indexed by node id (`None` = global cfg).
    pub(crate) switch_pfc: Vec<Option<PfcConfig>>,
    pub(crate) flows: FlowArena,
    /// NIC frame mid-serialization, indexed by node id.
    pub(crate) host_in_flight: Vec<Option<Packet>>,
    pub(crate) frames: FrameSlab,
    /// Per-link up/down state, indexed by `LinkId`.
    pub(crate) link_up: Vec<bool>,
    /// Armed per-switch PFC loss probability, indexed by node id.
    pub(crate) pfc_loss: Vec<Option<f64>>,
    /// Armed per-switch PFC delay, indexed by node id.
    pub(crate) pfc_delay: Vec<Option<SimDuration>>,
    /// Lossless headroom above XOFF under an armed pause fault.
    pub(crate) pause_headroom: Bytes,
    pub(crate) rng: SimRng,
    pub(crate) next_pkt_id: u64,
    pub(crate) dcqcn_cfg: Option<DcqcnConfig>,
    pub(crate) timely_cfg: Option<TimelyConfig>,
    /// Raw `FlowId` value → packet-lifecycle tracing enabled.
    pub(crate) traced: Vec<bool>,
    pub(crate) trace_cap: usize,
}

impl Datapath {
    /// The one constructor: `st` plus every field derived from it, from
    /// `topo` and `cfg`, and from `queue`'s live events.
    pub(crate) fn build(
        topo: Topology,
        cfg: SimConfig,
        st: DatapathState,
        queue: &EventQueue<Ev>,
    ) -> Datapath {
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
                    link_index: topo.link_index(n.id, p.port),
                    ser_default: l.rate.serialization_time(cfg.default_packet_size),
                });
            }
        }
        port_base.push(port_info.len() as u32);
        let quantum = st
            .flows
            .spec
            .iter()
            .map(|f| f.packet_size.unwrap_or(cfg.default_packet_size).get())
            .fold(cfg.default_packet_size.get(), u64::max);
        let mut dp = Datapath {
            topo,
            cfg,
            pause_timer: vec![None; port_info.len() * Priority::COUNT],
            port_info,
            port_base,
            quantum,
            tx_pause: st.tx_pause,
            switches: st.switches,
            hosts: st.hosts,
            switch_pfc: st.switch_pfc,
            flows: st.flows,
            host_in_flight: st.host_in_flight,
            frames: st.frames,
            link_up: st.link_up,
            pfc_loss: st.pfc_loss,
            pfc_delay: st.pfc_delay,
            pause_headroom: st.pause_headroom,
            rng: st.rng,
            next_pkt_id: st.next_pkt_id,
            dcqcn_cfg: st.dcqcn_cfg,
            timely_cfg: st.timely_cfg,
            traced: st.traced,
            trace_cap: st.trace_cap,
        };
        // Coalescing keeps at most one pending `PauseExpire` per channel,
        // and a restored queue holds every entry in a slot, so each has a
        // handle.
        queue.for_each_live(|id, _, ev| {
            if let Ev::PauseExpire { node, port, prio } = *ev {
                let c = dp.chan(node, port, prio as usize);
                dp.pause_timer[c] = id;
            }
        });
        dp
    }

    /// Dense arena row of a registered flow.
    #[inline]
    pub(crate) fn fidx(&self, f: FlowId) -> usize {
        self.flows.map[f.0 as usize] as usize
    }

    /// Hot-path per-flow counters (arena-backed; folded into
    /// `stats.flows` at run end).
    #[inline]
    pub(crate) fn fstat_mut(&mut self, f: FlowId) -> &mut FlowStats {
        let i = self.fidx(f);
        self.flows.touched[i] = true;
        &mut self.flows.stats[i]
    }

    /// The datapath's one route rule: the egress `node` gives `flow`'s
    /// packets for `dst` — the flow's pinned port, else the ECMP pick from
    /// `tables`. The static pre-check (`precheck`) walks packets with it
    /// too, over tables the run may not have installed yet, so the two
    /// cannot drift; [`FlowSpec::hops`] walks the same rule read off the
    /// spec (a pin row tabulates `PinnedPath::egress`).
    #[inline]
    pub(crate) fn next_hop(
        &self,
        tables: &ForwardingTables,
        flow: FlowId,
        node: NodeId,
        dst: NodeId,
    ) -> Option<PortNo> {
        match self.flows.pinned[self.fidx(flow)].get(node.0 as usize) {
            Some(&p) if p != u16::MAX => Some(PortNo(p)),
            _ => tables.select(node, dst, flow),
        }
    }

    /// The `Copy` subset of a flow's spec (everything per-event code
    /// needs); reading one is a memcpy, the heap-backed `route` stays put.
    #[inline]
    pub(crate) fn lite(&self, f: FlowId) -> SpecLite {
        let s = &self.flows.spec[self.fidx(f)];
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

    /// The ingress queue `key` names, if its switch and port exist.
    pub(crate) fn ingress(&self, key: RxQueue) -> Option<&Ingress> {
        self.switches[key.node.0 as usize]
            .as_ref()?
            .ingress
            .get(key.port.0 as usize)
    }

    /// Look up a switch's ingress record, with a diagnosable error for
    /// non-switch nodes and out-of-range ports.
    pub(crate) fn ingress_mut(
        &mut self,
        node: NodeId,
        port: PortNo,
    ) -> Result<&mut Ingress, Error> {
        let sw = self
            .switches
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| Error::Config(format!("{node} is not a switch")))?;
        sw.ingress
            .get_mut(port.0 as usize)
            .ok_or_else(|| Error::Config(format!("{node} has no port {}", port.0)))
    }

    /// Account `pkt` against ingress `(node, port)` of its class: the
    /// switch's shared buffer, the ingress counter and, when tracked, the
    /// flow's share of it. Returns whether it now needs a PAUSE: a
    /// lossless class at or past `xoff` with none sent.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        node: NodeId,
        port: PortNo,
        pkt: &Packet,
        lossless: bool,
        xoff: Bytes,
    ) -> bool {
        let track = self.cfg.track_per_flow_occupancy;
        let p = pkt.priority.index();
        let sw = self.switches[node.0 as usize].as_mut().expect("switch");
        sw.buffered += pkt.size;
        let ing = &mut sw.ingress[port.0 as usize];
        ing.count[p] += pkt.size;
        if track {
            ing.per_flow.add(pkt.priority.0, pkt.flow, pkt.size);
        }
        lossless && !ing.pause_sent[p] && ing.count[p] >= xoff
    }

    /// Bitmask of the priorities carrying traffic: the flows' own, plus
    /// the classes hop- and TTL-class remapping can move packets into.
    pub(crate) fn used_prios(&self) -> u8 {
        let mut used = 0u8;
        for f in &self.flows.spec {
            used |= 1 << f.priority.0;
        }
        if let Some(n) = self.cfg.hop_class_mode {
            for p in 0..n {
                used |= 1 << p;
            }
        }
        if let Some(tc) = self.cfg.ttl_class_mode {
            for p in tc.base_class..tc.base_class + tc.classes {
                used |= 1 << p;
            }
        }
        used
    }

    /// Every switch ingress × every priority in use, ascending in
    /// `(node, port, priority)`.
    pub(crate) fn ingress_queues(&self) -> Vec<RxQueue> {
        let used = self.used_prios();
        let mut v = Vec::new();
        for sw in self.switches.iter().flatten() {
            for port in 0..sw.ingress.len() {
                for prio in (0..Priority::COUNT as u8).filter(|p| used & (1 << p) != 0) {
                    v.push(RxQueue {
                        node: sw.node,
                        port: PortNo(port as u16),
                        priority: Priority(prio),
                    });
                }
            }
        }
        v
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

    pub(crate) fn packet_size_of(&self, packet_size: Option<Bytes>) -> Bytes {
        packet_size.unwrap_or(self.cfg.default_packet_size)
    }

    // ------------------------------------------------------------------
    // Port table
    // ------------------------------------------------------------------

    /// Global index of `(node, port)` into the flat [`Datapath::port_info`].
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
    /// ([`Datapath::tx_pause`], `pause_timer`).
    #[inline(always)]
    pub(crate) fn chan(&self, node: NodeId, port: PortNo, prio: usize) -> usize {
        self.pid(node, port) * Priority::COUNT + prio
    }

    /// Reopen every class of `(node, port)` — link-down / reboot paths.
    /// Pending quanta timers are left to fire as no-ops (their handles
    /// in `pause_timer` self-heal on the next refresh).
    pub(crate) fn clear_pause_state(&mut self, node: NodeId, port: PortNo) {
        let base = self.pid(node, port) * Priority::COUNT;
        self.tx_pause[base..base + Priority::COUNT].fill(TxPause::Open);
    }

    /// The channel whose receiver is `q`: the one constructor of a
    /// [`PauseKey`], for the pause logs, a downed link's spans and the
    /// detector's witness alike.
    #[inline]
    pub(crate) fn pause_key(&self, q: RxQueue) -> PauseKey {
        let info = self.pinfo(q.node, q.port);
        PauseKey {
            from: info.peer,
            to: q.node,
            priority: q.priority,
            link: info.link_index,
        }
    }

    /// Whether the link behind (node, port) is currently up.
    pub(crate) fn link_ok(&self, node: NodeId, port: PortNo) -> bool {
        self.link_up[self.pinfo(node, port).link.0 as usize]
    }
}

/// Serialization time of a `size`-byte frame on the port behind `info` —
/// cached for the (overwhelmingly common) default packet size.
#[inline(always)]
pub(crate) fn ser_time(info: &PortInfo, size: Bytes, default_size: Bytes) -> SimDuration {
    if size == default_size {
        info.ser_default
    } else {
        info.rate.serialization_time(size)
    }
}

/// Duration of `quanta` × 512 bit-times at `rate`.
fn quanta_duration(quanta: u16, rate: BitRate) -> SimDuration {
    rate.serialization_time(Bytes::new(quanta as u64 * 512 / 8))
}

impl NetSim {
    // ------------------------------------------------------------------
    // Arrivals
    // ------------------------------------------------------------------

    pub(super) fn on_arrive(&mut self, node: NodeId, port: PortNo, frame: Frame) {
        if !self.dp.link_ok(node, port) {
            // The frame was on the wire when the link died.
            if let Frame::Data(pkt) = frame {
                self.drop_packet(node, &pkt, DropReason::LinkDown);
            }
            return;
        }
        match (self.dp.topo.node(node).kind, frame) {
            (NodeKind::Host, Frame::Data(pkt)) => self.host_deliver(node, pkt),
            (NodeKind::Switch, Frame::Data(pkt)) => self.switch_rx(node, port, pkt),
            // A host's NIC transmits on port 0.
            (NodeKind::Host, Frame::Pfc(f)) => self.pfc_rx(node, PortNo(0), f),
            (NodeKind::Switch, Frame::Pfc(f)) => self.pfc_rx(node, port, f),
        }
    }

    pub(super) fn host_deliver(&mut self, host: NodeId, pkt: Packet) {
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
        let h = self.dp.hosts[host.0 as usize].as_mut().expect("host");
        h.received += pkt.size;
        let fi = self.dp.fidx(pkt.flow);
        self.dp.flows.touched[fi] = true;
        let fs = &mut self.dp.flows.stats[fi];
        fs.delivered_packets += 1;
        fs.delivered_bytes += pkt.size;
        fs.meter.record(now, pkt.size);
        if matches!(self.dp.flows.spec[fi].demand, Demand::Timely) {
            let rtt = now.saturating_since(pkt.injected_at);
            let delay = self.dp.flows.rt[fi].feedback_delay;
            self.sched(
                now + delay,
                Ev::RttSample {
                    flow: pkt.flow,
                    rtt_ps: rtt.as_ps(),
                },
            );
        }
        let fs = &mut self.dp.flows.stats[fi];
        if pkt.ecn_marked {
            fs.ecn_marked += 1;
            // Receiver-side CNP generation for DCQCN flows.
            let is_dcqcn = matches!(self.dp.flows.spec[fi].demand, Demand::Dcqcn);
            if is_dcqcn {
                let cfg = self.dp.dcqcn_cfg.expect("dcqcn cfg");
                let rt = &mut self.dp.flows.rt[fi];
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
    pub(super) fn arm_pause_timer(&mut self, node: NodeId, port: PortNo, prio: u8, until: SimTime) {
        let c = self.dp.chan(node, port, prio as usize);
        if let Some(id) = self.dp.pause_timer[c] {
            if self.queue.reschedule(id, until) {
                return;
            }
        }
        let ev = Ev::PauseExpire { node, port, prio };
        debug_assert!(is_meaningful(&ev));
        self.meaningful += 1;
        self.dp.pause_timer[c] = Some(self.queue.schedule(until, ev));
    }

    /// A PFC frame from the downstream receiver pauses or resumes one
    /// class of the transmitter behind `(node, port)`.
    pub(super) fn pfc_rx(&mut self, node: NodeId, port: PortNo, f: PfcFrame) {
        let c = self.dp.chan(node, port, f.priority.index());
        match f.op {
            PfcOp::Pause { quanta } => {
                let state = if quanta == u16::MAX {
                    TxPause::UntilResume
                } else {
                    let rate = self.dp.pinfo(node, port).rate;
                    TxPause::Until(self.now() + quanta_duration(quanta, rate))
                };
                self.dp.tx_pause[c] = state;
                if let TxPause::Until(until) = state {
                    self.arm_pause_timer(node, port, f.priority.0, until);
                }
            }
            PfcOp::Resume => {
                self.dp.tx_pause[c] = TxPause::Open;
                self.kick_transmitter(node, port);
            }
        }
    }

    /// Start a transmission behind `(node, port)` if one can start: a
    /// host's NIC, or a switch's egress.
    pub(super) fn kick_transmitter(&mut self, node: NodeId, port: PortNo) {
        match self.dp.topo.node(node).kind {
            NodeKind::Host => self.host_try_send(node),
            NodeKind::Switch => self.try_tx(node, port),
        }
    }

    pub(super) fn on_pause_expire(&mut self, node: NodeId, port: PortNo, prio: u8) {
        let now = self.now();
        let c = self.dp.chan(node, port, prio as usize);
        // The fired event is the slot's resident (or a pre-coalescing
        // stale duplicate); either way the handle is dead now.
        self.dp.pause_timer[c] = None;
        let expired = match self.dp.tx_pause[c] {
            TxPause::Until(t) if now >= t => {
                self.dp.tx_pause[c] = TxPause::Open;
                true
            }
            _ => false,
        };
        if expired {
            self.kick_transmitter(node, port);
        }
    }

    // ------------------------------------------------------------------
    // Switch datapath
    // ------------------------------------------------------------------

    pub(super) fn switch_rx(&mut self, node: NodeId, port: PortNo, mut pkt: Packet) {
        // TTL processing (the paper's drain mechanism, Eq. 1).
        if pkt.ttl == 0 {
            // Defensive: should have been dropped at the previous hop.
            self.drop_packet(node, &pkt, DropReason::TtlExpired);
            return;
        }
        pkt.ttl -= 1;
        if pkt.ttl == 0 {
            self.drop_packet(node, &pkt, DropReason::TtlExpired);
            return;
        }
        // Structured-buffer-pool class laddering.
        if let Some(n_classes) = self.dp.cfg.hop_class_mode {
            let spec_ttl = self.dp.flows.spec[self.dp.fidx(pkt.flow)].ttl;
            let hops = spec_ttl.saturating_sub(pkt.ttl).saturating_sub(1);
            pkt.priority = Priority(hops.min(n_classes - 1));
        }
        // §4 TTL-class mitigation: class follows the remaining-TTL band.
        if let Some(tc) = self.dp.cfg.ttl_class_mode {
            pkt.priority = Priority(tc.class_for(pkt.ttl));
        }
        let prio = pkt.priority;
        // Route lookup.
        let egress = self.dp.next_hop(&self.cp.tables, pkt.flow, node, pkt.dst);
        let Some(egress) = egress else {
            if self.dp.cfg.flood_on_miss {
                self.flood(node, port, pkt);
            } else {
                self.drop_packet(node, &pkt, DropReason::NoRoute);
            }
            return;
        };
        // Stale forwarding state pointing at a dead link black-holes the
        // packet until reconvergence repairs the tables.
        if !self.dp.link_ok(node, egress) {
            self.drop_packet(node, &pkt, DropReason::LinkDown);
            return;
        }
        // Buffer admission.
        let (buffered_now, ing_count) = {
            let sw = self.dp.switches[node.0 as usize].as_ref().expect("switch");
            (sw.buffered, sw.ingress[port.0 as usize].count[prio.index()])
        };
        let lossless = self.dp.pfc_of(node).is_lossless(prio.0);
        let over_shared = buffered_now + pkt.size > self.dp.cfg.switch_buffer;
        let lossy_tail_drop = !lossless && ing_count + pkt.size > self.dp.xoff_of(node, port);
        if over_shared || lossy_tail_drop {
            self.drop_packet(node, &pkt, DropReason::Overflow);
            return;
        }
        // With PFC signalling faulty at this hop, backpressure may never
        // arrive upstream; past XOFF plus the headroom the lossless
        // guarantee breaks and the port tail-drops.
        let pause_faulty = self.dp.pfc_loss[node.0 as usize].is_some()
            || self.dp.pfc_delay[node.0 as usize].is_some();
        if lossless
            && pause_faulty
            && ing_count + pkt.size > self.dp.xoff_of(node, port) + self.dp.pause_headroom
        {
            self.drop_packet(node, &pkt, DropReason::PauseLoss);
            return;
        }
        // Ingress accounting.
        let xoff = self.dp.xoff_of(node, port);
        let now = self.now();
        if self.dp.admit(node, port, &pkt, lossless, xoff) {
            self.send_pause(node, port, prio);
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
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
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
    pub(super) fn flood(&mut self, node: NodeId, ingress: PortNo, pkt: Packet) {
        let n_ports =
            (self.dp.port_base[node.0 as usize + 1] - self.dp.port_base[node.0 as usize]) as usize;
        let lossless = self.dp.pfc_of(node).is_lossless(pkt.priority.0);
        for e in 0..n_ports {
            if e == ingress.0 as usize {
                continue;
            }
            if !self.dp.link_ok(node, PortNo(e as u16)) {
                continue; // no replica onto a dead link
            }
            let copy = pkt;
            let over = {
                let sw = self.dp.switches[node.0 as usize].as_ref().expect("switch");
                sw.buffered + copy.size > self.dp.cfg.switch_buffer
            };
            if over {
                self.stats.drops_overflow += 1;
                self.dp.fstat_mut(copy.flow).dropped_overflow += 1;
                continue;
            }
            // Account the copy against the original ingress.
            let xoff = self.dp.xoff_of(node, ingress);
            if self.dp.admit(node, ingress, &copy, lossless, xoff) {
                self.send_pause(node, ingress, copy.priority);
            }
            self.stats.flood_replicas += 1;
            self.enqueue_egress(node, PortNo(e as u16), QPkt { pkt: copy, ingress });
        }
    }

    pub(super) fn on_shaper_release(&mut self, node: NodeId, port: PortNo) {
        let now = self.now();
        loop {
            enum Step {
                Done,
                Wait(SimTime),
                Release(Packet),
            }
            let step = {
                let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
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
                    let egress = self.dp.next_hop(&self.cp.tables, pkt.flow, node, pkt.dst);
                    match egress {
                        Some(e) if !self.dp.link_ok(node, e) => {
                            // Released onto a route that died while held.
                            self.drop_packet(node, &pkt, DropReason::LinkDown);
                            self.release_ingress(node, port, &pkt);
                        }
                        Some(e) => self.enqueue_egress(node, e, QPkt { pkt, ingress: port }),
                        None => {
                            // Route vanished: count and release the buffer.
                            self.stats.drops_no_route += 1;
                            self.dp.fstat_mut(pkt.flow).dropped_no_route += 1;
                            self.release_ingress(node, port, &pkt);
                        }
                    }
                }
            }
        }
    }

    /// ECN marking then enqueue at the egress and kick the transmitter.
    pub(super) fn enqueue_egress(&mut self, node: NodeId, egress: PortNo, mut qp: QPkt) {
        let now = self.now();
        if let Some(ecn) = self.dp.cfg.ecn {
            let prio = qp.pkt.priority.index();
            let rate = self.dp.pinfo(node, egress).rate;
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
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
            if p > 0.0 && self.dp.rng.gen_bool(p) {
                qp.pkt.ecn_marked = true;
            }
        }
        let arb = self.dp.cfg.arbitration;
        let prio = qp.pkt.priority.index();
        let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
        sw.egress[egress.0 as usize].queues[prio].push(qp, arb);
        self.cp.dl.note_bytes_moved();
        self.try_tx(node, egress);
    }

    /// Start a transmission on (node, egress port) if possible.
    pub(super) fn try_tx(&mut self, node: NodeId, port: PortNo) {
        // A busy transmitter is the common case under saturation (every
        // enqueue behind an in-flight frame lands here): check it before
        // touching link state or port info.
        {
            let sw = self.dp.switches[node.0 as usize].as_ref().expect("switch");
            if sw.egress[port.0 as usize].busy() {
                return;
            }
        }
        if !self.dp.link_ok(node, port) {
            return; // dead transmitter; LinkUp revives it
        }
        let now = self.now();
        let info = *self.dp.pinfo(node, port);
        let arb = self.dp.cfg.arbitration;
        let quantum = self.dp.quantum;
        let pause_base = self.dp.pid(node, port) * Priority::COUNT;
        let size = {
            let paused = &self.dp.tx_pause[pause_base..pause_base + Priority::COUNT];
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            let eg = &mut sw.egress[port.0 as usize];
            // Control frames jump the data queues.
            if let Some(f) = eg.ctrl.pop_front() {
                eg.in_flight = Some(InFlight::Pfc(f));
                PFC_FRAME_SIZE
            } else if let Some(p) = eg.pick_class(now, self.dp.cfg.class_scheduling, paused) {
                let qp = eg.queues[p]
                    .pop(arb, quantum)
                    .expect("eligible queue non-empty");
                let size = qp.pkt.size;
                eg.in_flight = Some(InFlight::Data(qp));
                self.cp.dl.note_bytes_moved();
                size
            } else {
                return;
            }
        };
        let ser = ser_time(&info, size, self.dp.cfg.default_packet_size);
        self.sched(now + ser, Ev::TxDone { node, port });
    }

    pub(super) fn on_tx_done(&mut self, node: NodeId, port: PortNo) {
        let info = *self.dp.pinfo(node, port);
        let in_flight = {
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            match sw.egress[port.0 as usize].in_flight.take() {
                Some(f) => f,
                // A reboot wiped this port while the frame serialized.
                None => return,
            }
        };
        let up = self.dp.link_ok(node, port);
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
                    let log = self.pause_log(node, port, f.priority);
                    if resume {
                        if !log.intervals.is_open() {
                            log.intervals.open(now);
                        }
                    } else if log.intervals.is_open() {
                        log.intervals.close(now);
                    }
                } else {
                    let extra = self.dp.pfc_delay[node.0 as usize].unwrap_or(SimDuration::ZERO);
                    let frame = self.dp.frames.alloc(Frame::Pfc(f));
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
                    let frame = self.dp.frames.alloc(Frame::Data(qp.pkt));
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
                    self.drop_packet(node, &qp.pkt, DropReason::LinkDown);
                }
                self.release_ingress(node, qp.ingress, &qp.pkt);
            }
        }
        self.try_tx(node, port);
    }

    /// Release ingress accounting for a packet leaving the switch and send
    /// RESUME if occupancy fell below XON.
    pub(super) fn release_ingress(&mut self, node: NodeId, ingress: PortNo, pkt: &Packet) {
        let track = self.dp.cfg.track_per_flow_occupancy;
        let prio = pkt.priority;
        let xon = self.dp.xon_of(node, ingress);
        let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
        sw.buffered -= pkt.size;
        let ing = &mut sw.ingress[ingress.0 as usize];
        ing.count[prio.index()] -= pkt.size;
        if track {
            ing.per_flow.sub(prio.0, pkt.flow, pkt.size);
        }
        if ing.pause_sent[prio.index()] && ing.count[prio.index()] < xon {
            ing.pause_sent[prio.index()] = false;
            self.cp
                .dl
                .note_pause(self.dp.chan(node, ingress, prio.index()), false);
            self.send_resume(node, ingress, prio);
        }
    }

    pub(super) fn send_pause(&mut self, node: NodeId, port: PortNo, prio: Priority) {
        if !self.dp.link_ok(node, port) {
            return; // nothing to protect across a dead link
        }
        let now = self.now();
        let mode = self.dp.pfc_of(node).mode;
        let info = *self.dp.pinfo(node, port);
        let quanta = match mode {
            PauseMode::XonXoff => u16::MAX,
            PauseMode::Quanta { quanta } => quanta,
        };
        self.cp
            .dl
            .note_pause(self.dp.chan(node, port, prio.index()), true);
        let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
        sw.ingress[port.0 as usize].pause_sent[prio.index()] = true;
        sw.egress[port.0 as usize].ctrl.push_back(PfcFrame {
            priority: prio,
            op: PfcOp::Pause { quanta },
        });
        self.stats.pause_frames += 1;
        let log = self.pause_log(node, port, prio);
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

    pub(super) fn on_pause_refresh(&mut self, node: NodeId, port: PortNo, prio: u8) {
        let p = Priority(prio);
        let sw = self.dp.switches[node.0 as usize].as_ref().expect("switch");
        if !sw.ingress[port.0 as usize].pause_sent[p.index()] {
            return; // resumed in the meantime
        }
        // Still congested: re-assert the pause.
        let xon = self.dp.xon_of(node, port);
        let count = sw.ingress[port.0 as usize].count[p.index()];
        if count >= xon {
            self.send_pause(node, port, p);
        }
        // Below xon: the next release_ingress will send the resume (or the
        // pause simply expires downstream).
    }

    pub(super) fn send_resume(&mut self, node: NodeId, port: PortNo, prio: Priority) {
        // No frame can cross a dead link, but the channel no longer pauses
        // anyone either: the span closes all the same, so the log stays
        // truthful.
        let up = self.dp.link_ok(node, port);
        if up {
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            sw.egress[port.0 as usize].ctrl.push_back(PfcFrame {
                priority: prio,
                op: PfcOp::Resume,
            });
            self.stats.resume_frames += 1;
        }
        let now = self.now();
        let log = self.pause_log(node, port, prio);
        if log.intervals.is_open() {
            log.intervals.close(now);
        }
        if up {
            self.try_tx(node, port);
        }
    }

    /// The pause log of the channel whose receiver is `(node, port)`.
    fn pause_log(&mut self, node: NodeId, port: PortNo, priority: Priority) -> &mut PauseLog {
        let key = self.dp.pause_key(RxQueue {
            node,
            port,
            priority,
        });
        self.stats.pause.entry(key).or_default()
    }

    /// Count a packet the network destroys at `node` — network-wide and
    /// against its flow — and trace it. A misdelivered flood copy is not
    /// one: `host_deliver` counts it network-wide only.
    pub(super) fn drop_packet(&mut self, node: NodeId, pkt: &Packet, reason: DropReason) {
        let fs = self.dp.fstat_mut(pkt.flow);
        let (net, flow) = match reason {
            DropReason::TtlExpired => (&mut self.stats.drops_ttl, &mut fs.dropped_ttl),
            DropReason::NoRoute => (&mut self.stats.drops_no_route, &mut fs.dropped_no_route),
            DropReason::Overflow => (&mut self.stats.drops_overflow, &mut fs.dropped_overflow),
            DropReason::Recovery => (&mut self.stats.drops_recovery, &mut fs.dropped_recovery),
            DropReason::LinkDown => (&mut self.stats.drops_link_down, &mut fs.dropped_link_down),
            DropReason::PauseLoss => (&mut self.stats.drops_pause_loss, &mut fs.dropped_pause_loss),
            DropReason::Misdelivered => unreachable!("counted by host_deliver"),
        };
        *net += 1;
        *flow += 1;
        let t = self.now();
        self.trace(
            pkt.flow,
            pkt.priority,
            TraceEvent::Dropped {
                t,
                pkt: pkt.id,
                node,
                reason,
            },
        );
    }
}

/// Pre-run configuration of the switches: PFC overrides, port thresholds
/// and ingress shapers.
impl NetSim {
    /// Override PFC settings for one switch (threshold tiering).
    ///
    /// Returns an error for an invalid config or a non-switch node.
    pub fn try_set_switch_pfc(&mut self, node: NodeId, pfc: PfcConfig) -> Result<(), Error> {
        pfc.validate()?;
        if self
            .dp
            .switches
            .get(node.0 as usize)
            .is_none_or(Option::is_none)
        {
            return Err(Error::Config(format!("{node} is not a switch")));
        }
        self.dp.switch_pfc[node.0 as usize] = Some(pfc);
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
        let ing = self.dp.ingress_mut(node, port)?;
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
        let ing = self.dp.ingress_mut(node, port)?;
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
}

//! The host side of the datapath: traffic sources (flow start and stop,
//! generation ticks), NIC transmit, and the DCQCN and TIMELY rate loops,
//! with their pre-run configuration (flows, congestion control, tracing).
//! The switch-side handlers are in `datapath.rs`.

use std::collections::BTreeSet;

use pfcsim_simcore::error::Error;
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};

use super::datapath::{ser_time, SpecLite};
use super::{Ev, NetSim};
use crate::dcqcn::{DcqcnConfig, DcqcnState};
use crate::flow::{Demand, FlowSpec, RouteKind};
use crate::packet::{Frame, Packet};
use crate::timely::{TimelyConfig, TimelyState};
use crate::trace::{DropReason, TraceEvent};

impl NetSim {
    // ------------------------------------------------------------------
    // Flow lifecycle & host sending
    // ------------------------------------------------------------------

    pub(super) fn on_flow_start(&mut self, flow: FlowId) {
        let i = self.dp.fidx(flow);
        let spec = self.dp.lite(flow);
        {
            let now = self.queue.now();
            let rt = &mut self.dp.flows.rt[i];
            rt.active = true;
            if matches!(spec.demand, Demand::Dcqcn) {
                let cfg = self.dp.dcqcn_cfg.expect("checked at start");
                rt.dcqcn = Some(DcqcnState::new(&cfg));
                rt.next_send = now;
            }
            if matches!(spec.demand, Demand::Timely) {
                let cfg = self.dp.timely_cfg.expect("checked at start");
                rt.timely = Some(TimelyState::new(&cfg));
                rt.next_send = now;
            }
        }
        match spec.demand {
            Demand::Cbr(_) | Demand::CbrFinite { .. } => {
                // Hybrid: a fluid flow's tick chain is never scheduled —
                // its lattice is folded in closed form at finalize.
                if !self.hybrid_is_fluid(flow) {
                    self.sched(self.now(), Ev::FlowTick { flow });
                }
            }
            Demand::Poisson(_) => {
                let child = self.dp.rng.fork(0x50_1550 ^ flow.0 as u64);
                self.dp.flows.rt[i].rng = Some(child);
                self.sched(self.now(), Ev::FlowTick { flow });
            }
            Demand::OnOff { mean_on, .. } => {
                let mut child = self.dp.rng.fork(0x0F0F ^ flow.0 as u64);
                let first_on = exp_duration(&mut child, mean_on);
                let rt = &mut self.dp.flows.rt[i];
                rt.rng = Some(child);
                rt.on = true;
                self.sched(self.now(), Ev::FlowTick { flow });
                self.sched(self.now() + first_on, Ev::OnOffToggle { flow });
            }
            Demand::Infinite => self.host_try_send(spec.src),
            Demand::Dcqcn => {
                let cfg = self.dp.dcqcn_cfg.expect("checked");
                self.sched(self.now() + cfg.alpha_timer, Ev::DcqcnAlpha { flow });
                self.sched(self.now() + cfg.rate_timer, Ev::DcqcnRate { flow });
                self.host_try_send(spec.src);
            }
            Demand::Timely => self.host_try_send(spec.src),
        }
    }

    pub(super) fn on_flow_stop(&mut self, flow: FlowId) {
        let i = self.dp.fidx(flow);
        let rt = &mut self.dp.flows.rt[i];
        rt.active = false;
        let (pkts, bytes) = (
            rt.backlog.len() as u64,
            rt.backlog.iter().map(|p| p.size).sum::<Bytes>(),
        );
        rt.backlog.clear();
        if pkts > 0 {
            let fs = self.dp.fstat_mut(flow);
            fs.unsent_packets += pkts;
            fs.unsent_bytes += bytes;
        }
    }

    pub(super) fn on_flow_tick(&mut self, flow: FlowId) {
        let i = self.dp.fidx(flow);
        let spec = self.dp.lite(flow);
        let size = self.dp.packet_size_of(spec.packet_size);
        {
            let rt = &mut self.dp.flows.rt[i];
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
        // Hybrid intercept: swallow a fluid flow's sentinel tick.
        if self.hybrid_is_fluid(flow) {
            return;
        }
        // On-off sources skip generation while OFF; the toggle re-arms the
        // tick chain.
        if let Demand::OnOff { .. } = spec.demand {
            if !self.dp.flows.rt[i].on {
                return;
            }
        }
        let pkt = self.make_packet(spec, size);
        let rt = &mut self.dp.flows.rt[i];
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

    pub(super) fn on_onoff_toggle(&mut self, flow: FlowId) {
        let i = self.dp.fidx(flow);
        let spec = self.dp.lite(flow);
        let Demand::OnOff {
            mean_on, mean_off, ..
        } = spec.demand
        else {
            unreachable!("toggle only scheduled for on-off flows");
        };
        let (now_on, next_after) = {
            let rt = &mut self.dp.flows.rt[i];
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

    pub(super) fn make_packet(&mut self, spec: SpecLite, size: Bytes) -> Packet {
        let id = self.dp.next_pkt_id;
        self.dp.next_pkt_id += 1;
        let i = self.dp.fidx(spec.id);
        let rt = &mut self.dp.flows.rt[i];
        let seq = rt.next_seq;
        rt.next_seq += 1;
        rt.injected += size;
        self.dp.flows.touched[i] = true;
        let fs = &mut self.dp.flows.stats[i];
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
    pub(super) fn host_try_send(&mut self, host: NodeId) {
        let now = self.now();
        let h = self.dp.hosts[host.0 as usize].as_ref().expect("host");
        if h.busy || h.rr.is_empty() {
            return;
        }
        if !self.dp.link_ok(host, PortNo(0)) {
            return; // NIC link down; LinkUp revives the sender
        }
        let n = h.rr.len();
        let mut chosen: Option<FlowId> = None;
        let mut earliest_wake: Option<SimTime> = None;
        for i in 0..n {
            let h = self.dp.hosts[host.0 as usize].as_ref().expect("host");
            let f = h.rr[i];
            let fi = self.dp.fidx(f);
            let spec = &self.dp.flows.spec[fi];
            let rt = &self.dp.flows.rt[fi];
            if self.dp.cfg.host_respects_pfc
                && self.dp.tx_pause[self.dp.chan(host, PortNo(0), spec.priority.index())]
                    .is_paused(now)
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
                let h = self.dp.hosts[host.0 as usize].as_mut().expect("host");
                for _ in 0..=i {
                    h.rotate();
                }
                break;
            }
        }
        let Some(f) = chosen else {
            if let Some(wake) = earliest_wake {
                let h = self.dp.hosts[host.0 as usize].as_mut().expect("host");
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
        let fi = self.dp.fidx(f);
        let spec = self.dp.lite(f);
        let size = self.dp.packet_size_of(spec.packet_size);
        let pkt = match spec.demand {
            Demand::Infinite => self.make_packet(spec, size),
            Demand::Dcqcn => {
                let p = self.make_packet(spec, size);
                let cfg = self.dp.dcqcn_cfg.expect("dcqcn flows have config");
                let rt = &mut self.dp.flows.rt[fi];
                let st = rt.dcqcn.as_mut().expect("dcqcn state");
                st.on_bytes_sent(size, &cfg);
                let rate = st.rate.min(cfg.line_rate);
                rt.next_send = now + rate.serialization_time(size);
                p
            }
            Demand::Timely => {
                let p = self.make_packet(spec, size);
                let cfg = self.dp.timely_cfg.expect("timely flows have config");
                let rt = &mut self.dp.flows.rt[fi];
                let st = rt.timely.as_ref().expect("timely state");
                let rate = st.rate.min(cfg.line_rate);
                rt.next_send = now + rate.serialization_time(size);
                p
            }
            _ => self.dp.flows.rt[fi]
                .backlog
                .pop_front()
                .expect("ready tick-driven flow has backlog"),
        };
        let info = self.dp.pinfo(host, PortNo(0));
        let ser = ser_time(info, pkt.size, self.dp.cfg.default_packet_size);
        let h = self.dp.hosts[host.0 as usize].as_mut().expect("host");
        h.busy = true;
        self.dp.host_in_flight[host.0 as usize] = Some(pkt);
        self.sched(now + ser, Ev::HostTxDone { host });
    }

    pub(super) fn on_host_tx_done(&mut self, host: NodeId) {
        let Some(pkt) = self.dp.host_in_flight[host.0 as usize].take() else {
            return; // destroyed by a fault mid-serialization
        };
        let info = *self.dp.pinfo(host, PortNo(0));
        if self.dp.link_ok(host, PortNo(0)) {
            let frame = self.dp.frames.alloc(Frame::Data(pkt));
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
            self.drop_packet(host, &pkt, DropReason::LinkDown);
        }
        let h = self.dp.hosts[host.0 as usize].as_mut().expect("host");
        h.busy = false;
        self.host_try_send(host);
    }

    // ------------------------------------------------------------------
    // DCQCN plumbing
    // ------------------------------------------------------------------

    pub(super) fn on_cnp(&mut self, flow: FlowId) {
        let cfg = self.dp.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.dp.fidx(flow);
        let rt = &mut self.dp.flows.rt[i];
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_cnp(&cfg);
        }
    }

    pub(super) fn on_rtt_sample(&mut self, flow: FlowId, rtt_ps: u64) {
        let cfg = self.dp.timely_cfg.expect("timely cfg");
        let i = self.dp.fidx(flow);
        let src = self.dp.flows.spec[i].src;
        let rt = &mut self.dp.flows.rt[i];
        if let Some(st) = rt.timely.as_mut() {
            st.on_rtt(SimDuration::from_ps(rtt_ps), &cfg);
        }
        self.host_try_send(src);
    }

    pub(super) fn on_dcqcn_alpha(&mut self, flow: FlowId) {
        let cfg = self.dp.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.dp.fidx(flow);
        let rt = &mut self.dp.flows.rt[i];
        if !rt.active {
            return;
        }
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_alpha_tick(&cfg);
        }
        self.sched(self.now() + cfg.alpha_timer, Ev::DcqcnAlpha { flow });
    }

    pub(super) fn on_dcqcn_rate(&mut self, flow: FlowId) {
        let cfg = self.dp.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.dp.fidx(flow);
        let src = self.dp.flows.spec[i].src;
        let rt = &mut self.dp.flows.rt[i];
        if !rt.active {
            return;
        }
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_rate_tick(&cfg);
        }
        self.sched(self.now() + cfg.rate_timer, Ev::DcqcnRate { flow });
        self.host_try_send(src);
    }

    /// The one-way propagation delay of the links `flow`'s packets take.
    pub(super) fn compute_feedback_delay(&self, flow: FlowId) -> SimDuration {
        let (topo, spec) = (&self.dp.topo, &self.dp.flows.spec[self.dp.fidx(flow)]);
        (spec.hops(topo, &self.cp.tables, 64)).fold(SimDuration::ZERO, |total, (_, out)| {
            total + topo.link(out.link).delay
        })
    }
}

/// Exponentially-distributed duration with the given mean (≥ 1 ps).
fn exp_duration(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let ps = rng.gen_exp(mean.as_ps() as f64).round().max(1.0);
    SimDuration::from_ps(ps as u64)
}

/// Pre-run configuration of the sources: flows, congestion control and
/// tracing.
impl NetSim {
    /// Register a flow, reporting invalid specs as `Err`.
    ///
    /// The canonical, `Result`-returning form of [`NetSim::add_flow`]:
    /// duplicate ids, nodes outside the topology, non-host endpoints, and
    /// invalid pinned paths
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
        if self
            .dp
            .flows
            .map
            .get(raw)
            .is_some_and(|&slot| slot != u32::MAX)
        {
            return Err(Error::Config(format!("duplicate flow id {}", spec.id)));
        }
        spec.check_nodes(&self.dp.topo)?;
        if self.dp.topo.node(spec.src).kind != NodeKind::Host {
            return Err(Error::Config(format!(
                "flow source must be a host, got {}",
                spec.src
            )));
        }
        if self.dp.topo.node(spec.dst).kind != NodeKind::Host {
            return Err(Error::Config(format!(
                "flow destination must be a host, got {}",
                spec.dst
            )));
        }
        let mut pin: Vec<u16> = Vec::new();
        if let RouteKind::Pinned(path) = &spec.route {
            path.validate(&self.dp.topo)
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
            // The switches between the two hosts, each with its egress.
            pin = vec![u16::MAX; self.dp.topo.node_count()];
            for &node in &path.nodes[1..path.nodes.len() - 1] {
                let out = path.egress(&self.dp.topo, node).expect("on the path");
                pin[node.0 as usize] = out.port.0;
            }
        }
        // Raise the DRR quantum to the largest packet among the flows, as
        // `NetSim::from_image` derives it on a resume.
        self.dp.quantum = self.dp.quantum.max(
            spec.packet_size
                .unwrap_or(self.dp.cfg.default_packet_size)
                .get(),
        );
        self.dp.hosts[spec.src.0 as usize]
            .as_mut()
            .expect("source is a host")
            .add_flow(spec.id);
        self.dp.flows.push(spec, pin);
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

    /// Enable DCQCN with the given parameters (required if any flow has
    /// `Demand::Dcqcn`; also requires `SimConfig::ecn`).
    pub fn set_dcqcn(&mut self, cfg: DcqcnConfig) {
        self.dp.dcqcn_cfg = Some(cfg);
    }

    /// Record per-packet lifecycle events for the given flows (see
    /// [`crate::trace`]). Recording stops at the trace cap.
    pub fn trace_flows(&mut self, flows: impl IntoIterator<Item = FlowId>) {
        for f in flows {
            let raw = f.0 as usize;
            if self.dp.traced.len() <= raw {
                self.dp.traced.resize(raw + 1, false);
            }
            self.dp.traced[raw] = true;
        }
    }

    /// Cap the number of recorded trace events (default 1,000,000).
    pub fn set_trace_cap(&mut self, cap: usize) {
        self.dp.trace_cap = cap;
    }

    /// Enable TIMELY with the given parameters (required if any flow has
    /// `Demand::Timely`). Needs no switch (ECN) support.
    pub fn set_timely(&mut self, cfg: TimelyConfig) {
        self.dp.timely_cfg = Some(cfg);
    }
}

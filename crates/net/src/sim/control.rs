//! The control-plane part of [`NetSim`] — forwarding tables and route
//! updates, the fault timeline, reboots, the deadlock detector's cadence
//! and verdict, the sampled queues — and the handlers that act on them.
//! `NetSim::from_image` builds it from a checkpoint image and derives
//! the detector's channel arena.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::series::{RingSeries, TimeSeries};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{LinkId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::ForwardingTables;

use super::{Ev, NetSim};
use crate::bdg::RxQueue;
use crate::deadlock::DeadlockTracker;
use crate::faults::{FaultAction, FaultKind, FaultPlan, FaultRecord};
use crate::packet::Packet;
use crate::recovery::{RecoveryConfig, RecoveryStrategy};
use crate::stats::{push_in_order, PauseKey};
use crate::switch::{InFlight, QPkt};
use crate::telemetry::{MetricId, TelemetryConfig, TelemetryRecord};
use crate::trace::DropReason;

/// A timed forwarding-table mutation (transient loops, failures, repairs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RouteUpdate {
    pub(crate) at: SimTime,
    pub(crate) node: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) ports: Vec<PortNo>,
}

/// State saved across a [`FaultKind::SwitchReboot`] for the restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RebootState {
    /// Links this reboot took down (restored together).
    pub(crate) links: Vec<LinkId>,
    /// The wiped forwarding-table rows.
    pub(crate) routes: Vec<(NodeId, Vec<PortNo>)>,
}

/// The control-plane part of a [`NetSim`] (see the module doc).
pub(crate) struct ControlPlane {
    pub(crate) tables: ForwardingTables,
    pub(crate) route_updates: Vec<RouteUpdate>,
    /// The installed fault plan expanded (flaps unrolled) and sorted;
    /// `Ev::Fault` indexes it.
    pub(crate) fault_events: Vec<(SimTime, FaultKind)>,
    /// Fault randomness (pause-loss coins, reconvergence jitter): an
    /// independent stream so installing a plan never perturbs traffic RNG.
    pub(crate) fault_rng: SimRng,
    /// Switches currently down, with the state their restore needs.
    pub(crate) reboots: BTreeMap<NodeId, RebootState>,
    /// Dense channel arena + pause bitset for the incremental deadlock
    /// detector (see [`crate::deadlock`]).
    pub(crate) dl: DeadlockTracker,
    /// Tracker epoch at the last deadlock-free periodic scan; while the
    /// epoch still matches, a rescan is provably redundant.
    pub(crate) last_clean_scan: Option<u64>,
    pub(crate) scans_run: u64,
    pub(crate) scans_skipped: u64,
    /// Debug: run the reference analyzer beside the incremental one and
    /// panic on divergence.
    pub(crate) cross_check_deadlock: bool,
    pub(crate) deadlock: Option<(SimTime, Vec<PauseKey>)>,
    /// Sampling restriction (sorted, deduped); `None` = sample everything.
    pub(crate) watch_keys: Option<Vec<RxQueue>>,
    /// Keys `on_sample` walks, precomputed at `start()`.
    pub(crate) sample_keys: Vec<RxQueue>,
}

impl NetSim {
    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    pub(super) fn on_sample(&mut self) {
        let now = self.now();
        // The key set and the series live in different parts: disjoint
        // borrows, no per-sample allocation.
        let dp = &self.dp;
        let watched = || {
            (self.cp.sample_keys.iter()).filter_map(|&key| dp.ingress(key).map(|ing| (key, ing)))
        };
        push_in_order(
            &mut self.stats.occupancy,
            watched().map(|(key, ing)| (key, ing.count[key.priority.index()].get())),
            TimeSeries::new,
            |series, v| series.push(now, v),
        );
        if dp.cfg.track_per_flow_occupancy {
            // A ledger iterates in (priority, flow) order, so each key's
            // flows come ascending too.
            let flows = watched().flat_map(|(key, ing)| {
                (ing.per_flow.iter())
                    .filter(move |&(&(p, _), _)| p == key.priority.0)
                    .map(move |(&(_, f), &b)| ((key, f), b.get()))
            });
            push_in_order(
                &mut self.stats.flow_occupancy,
                flows,
                TimeSeries::new,
                |series, v| series.push(now, v),
            );
        }
        if let Some(iv) = self.dp.cfg.sample_interval {
            let next = now + iv;
            if next <= self.horizon {
                self.sched(next, Ev::Sample);
            }
        }
    }

    pub(super) fn on_telemetry_sample(&mut self) {
        let now = self.now();
        // Take the box out so the snapshot can read `&self` while
        // writing the telemetry state — disjoint borrows, no clone.
        let Some(mut t) = self.telem.take() else {
            return;
        };
        self.telemetry_snapshot(&t.cfg, &t.probe_keys, &mut t.rec, now);
        t.rec.report.samples_taken += 1;
        t.rec.last_sample_at = now;
        let interval = t.cfg.sample_interval;
        self.telem = Some(t);
        let next = now + interval;
        if next <= self.horizon {
            self.sched(next, Ev::TelemetrySample);
        }
    }

    /// One telemetry tick: snapshot every metric and run the
    /// enabled keyed probes, the occupancy probe over `probe_keys`.
    /// Rate-style probes (pause ratio, goodput) need a non-empty window,
    /// so they skip the tick at time zero.
    pub(super) fn telemetry_snapshot(
        &self,
        cfg: &TelemetryConfig,
        probe_keys: &[RxQueue],
        t: &mut TelemetryRecord,
        now: SimTime,
    ) {
        let window = now - t.last_sample_at;
        t.report
            .registry
            .record_all(now, |id| self.metric_value(id));
        if cfg.pause_probe {
            for (key, log) in &self.stats.pause {
                // Pause ratio: fraction of the window this channel spent
                // inside an XOFF span (an open span counts up to `now`).
                // The previous sample's total carries forward plus what
                // the spans it saw open or not at all cover since; a
                // channel it did not see opened its first span after it.
                let spans = log.intervals.intervals();
                let closed = spans.len() - usize::from(log.intervals.is_open());
                let prev_closed = t.last_closed.insert(*key, closed).unwrap_or(0);
                let slot = t.last_pause_dur.entry(*key).or_default();
                let prev = *slot;
                let dur =
                    (log.intervals).total_duration_since(prev_closed, t.last_sample_at, prev, now);
                debug_assert_eq!(dur, log.intervals.total_duration(now), "{key:?} at {now}");
                *slot = dur;
                if !window.is_zero() {
                    let ratio = (dur - prev).as_ps() as f64 / window.as_ps() as f64;
                    t.report
                        .pause_ratio
                        .entry(*key)
                        .or_insert_with(|| RingSeries::with_capacity(cfg.ring_capacity))
                        .push(now, ratio);
                }
                // Resume latency: mean length of the XOFF→XON spans that
                // closed since the previous tick. Only the last interval
                // can still be open, so the closed prefix is stable.
                if closed > prev_closed {
                    let total = spans[prev_closed..closed]
                        .iter()
                        .map(|(s, e)| e.expect("closed span") - *s)
                        .fold(SimDuration::ZERO, |a, d| a + d);
                    let mean_us = total.as_ps() as f64 / (closed - prev_closed) as f64 / 1e6;
                    t.report
                        .resume_latency_us
                        .entry(*key)
                        .or_insert_with(|| RingSeries::with_capacity(cfg.ring_capacity))
                        .push(now, mean_us);
                }
            }
        }
        if cfg.occupancy_probe {
            let cap = cfg.ring_capacity;
            let ring = || RingSeries::with_capacity(cap);
            let push = |series: &mut RingSeries, v: u64| series.push(now, v as f64);
            let probed = || {
                (probe_keys.iter()).filter_map(|&key| self.dp.ingress(key).map(|ing| (key, ing)))
            };
            push_in_order(
                &mut t.report.occupancy,
                probed().map(|(key, ing)| (key, ing.count[key.priority.index()].get())),
                ring,
                push,
            );
            push_in_order(
                &mut t.report.xoff_threshold,
                probed().map(|(key, _)| (key, self.dp.xoff_of(key.node, key.port).get())),
                ring,
                push,
            );
            push_in_order(
                &mut t.report.xon_threshold,
                probed().map(|(key, _)| (key, self.dp.xon_of(key.node, key.port).get())),
                ring,
                push,
            );
        }
        if cfg.goodput_probe && !window.is_zero() {
            let secs = window.as_ps() as f64 * 1e-12;
            t.last_flow_bytes.resize(self.dp.flows.spec.len(), 0);
            for i in 0..self.dp.flows.spec.len() {
                if !self.dp.flows.touched[i] {
                    continue;
                }
                let bytes = self.dp.flows.stats[i].delivered_bytes.get();
                let delta = bytes - t.last_flow_bytes[i];
                t.last_flow_bytes[i] = bytes;
                let bps = delta as f64 * 8.0 / secs;
                t.report
                    .goodput_bps
                    .entry(self.dp.flows.spec[i].id)
                    .or_insert_with(|| RingSeries::with_capacity(cfg.ring_capacity))
                    .push(now, bps);
            }
        }
    }

    /// Map a [`MetricId`] to its current engine value. All sources are
    /// state the engine maintains anyway, so a metric adds no per-event
    /// cost.
    pub(super) fn metric_value(&self, id: MetricId) -> f64 {
        match id {
            MetricId::PacketsInjected => self
                .dp
                .flows
                .stats
                .iter()
                .map(|f| f.injected_packets)
                .sum::<u64>() as f64,
            MetricId::PacketsDelivered => self
                .dp
                .flows
                .stats
                .iter()
                .map(|f| f.delivered_packets)
                .sum::<u64>() as f64,
            MetricId::BytesDelivered => self
                .dp
                .flows
                .stats
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
            MetricId::DeadlockScansRun => self.cp.scans_run as f64,
            MetricId::DeadlockScansSkipped => self.cp.scans_skipped as f64,
            MetricId::FaultsApplied => self.stats.faults.len() as f64,
            MetricId::PauseFramesLost => self.stats.pause_frames_lost as f64,
            MetricId::EventsProcessed => self.events as f64,
            MetricId::EventsPending => self.meaningful as f64,
        }
    }

    /// Run the incremental analyzer, optionally shadowed by the reference
    /// implementation (see [`NetSim::debug_cross_check_deadlock`]), and
    /// return the frozen queues.
    pub(super) fn scan_deadlock(&mut self) -> Option<Vec<RxQueue>> {
        let core = self.dp.analyze_deadlock(&mut self.cp.dl);
        if self.cp.cross_check_deadlock {
            let reference = self.dp.analyze_deadlock_reference();
            assert_eq!(
                core,
                reference,
                "incremental and reference deadlock analyzers diverged at {}",
                self.now()
            );
        }
        core
    }

    /// Scan, and confirm a deadlock the scan finds unless one already is;
    /// returns the frozen queues.
    pub(super) fn confirm_deadlock(&mut self) -> Option<Vec<RxQueue>> {
        let core = self.scan_deadlock()?;
        if self.cp.deadlock.is_none() {
            self.cp.deadlock = Some((self.now(), self.dp.witness(&core)));
        }
        Some(core)
    }

    /// Test hook: run the reference analyzer beside the incremental one at
    /// every scan and panic on any verdict-or-witness divergence.
    pub fn debug_cross_check_deadlock(&mut self, on: bool) {
        self.cp.cross_check_deadlock = on;
    }

    pub(super) fn on_deadlock_scan(&mut self) {
        if self.cp.deadlock.is_none() {
            let epoch = self.cp.dl.epoch();
            if self.cp.last_clean_scan == Some(epoch) {
                // No pause flipped and no byte moved since the last clean
                // scan: the verdict cannot have changed.
                self.cp.scans_skipped += 1;
                if self.cp.cross_check_deadlock {
                    assert!(
                        self.analyze_deadlock_reference().is_none(),
                        "skip heuristic unsound at {}",
                        self.now()
                    );
                }
            } else {
                self.cp.scans_run += 1;
                if self.confirm_deadlock().is_none() {
                    self.cp.last_clean_scan = Some(epoch);
                }
            }
        }
        if let Some(iv) = self.dp.cfg.deadlock_scan_interval {
            let next = self.now() + iv;
            if next <= self.horizon && self.cp.deadlock.is_none() {
                self.sched(next, Ev::DeadlockScan);
            }
        }
    }

    pub(super) fn on_recovery_scan(&mut self) {
        let rc = self
            .dp
            .cfg
            .recovery
            .expect("RecoveryScan only fires when armed");
        if let Some(core) = self.confirm_deadlock() {
            let targets = match rc.strategy {
                RecoveryStrategy::DrainWitness => core,
                RecoveryStrategy::DrainOneQueue => {
                    // The frozen queue holding the most bytes (the first
                    // of equals).
                    let bytes = |q: RxQueue| {
                        let sw = self.dp.switches[q.node.0 as usize].as_ref();
                        sw.expect("switch").ingress[q.port.0 as usize].count[q.priority.index()]
                    };
                    let most = core.into_iter().min_by_key(|&q| Reverse(bytes(q)));
                    most.into_iter().collect()
                }
            };
            for q in targets {
                self.force_drain(q);
            }
            self.stats.recovery_actions += 1;
        }
        let next = self.now() + rc.check_interval;
        if next <= self.horizon {
            self.sched(next, Ev::RecoveryScan);
        }
    }

    /// Destroy every packet of `q`'s class buffered at its switch that
    /// arrived on its port — the simulation analogue of resetting the
    /// port. Releases PFC accounting so the upstream resumes.
    pub(super) fn force_drain(&mut self, q: RxQueue) {
        let RxQueue {
            node,
            port,
            priority: prio,
        } = q;
        let n_egress = self.dp.switches[node.0 as usize]
            .as_ref()
            .expect("switch")
            .egress
            .len();
        let mut victims: Vec<Packet> = Vec::new();
        {
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            for e in 0..n_egress {
                if let Some(q) = sw.egress[e].queues.get_mut(prio.index()) {
                    for qp in q.drain_from_ingress(port) {
                        victims.push(qp.pkt);
                    }
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
        self.cp.dl.note_bytes_moved();
        for pkt in victims {
            self.drop_packet(node, &pkt, DropReason::Recovery);
            self.release_ingress(node, port, &pkt);
        }
        // Freed buffer may unblock local transmitters.
        for e in 0..n_egress {
            self.try_tx(node, PortNo(e as u16));
        }
    }

    pub(super) fn record_fault(&mut self, action: FaultAction) {
        let at = self.now();
        self.stats.faults.push(FaultRecord { at, action });
    }

    /// Draw from the PFC-loss process armed at `node`, if any.
    pub(super) fn pfc_lost(&mut self, node: NodeId) -> bool {
        match self.dp.pfc_loss[node.0 as usize] {
            Some(p) => self.cp.fault_rng.gen_bool(p),
            None => false,
        }
    }

    pub(super) fn on_fault(&mut self, idx: usize) {
        let kind = self.cp.fault_events[idx].1.clone();
        match kind {
            FaultKind::LinkDown { a, b, link } => self.fault_link_down(a, b, link),
            FaultKind::LinkUp { a, b, link } => self.fault_link_up(a, b, link),
            FaultKind::LinkFlap { .. } => {
                unreachable!("flaps are unrolled when the plan is installed")
            }
            FaultKind::PauseLoss { node, probability } => {
                self.dp.pfc_loss[node.0 as usize] = if probability > 0.0 {
                    Some(probability)
                } else {
                    None
                };
                self.record_fault(FaultAction::PauseLossArmed { node, probability });
            }
            FaultKind::PauseDelay { node, extra } => {
                self.dp.pfc_delay[node.0 as usize] =
                    if extra.is_zero() { None } else { Some(extra) };
                self.record_fault(FaultAction::PauseDelayArmed { node, extra });
            }
            FaultKind::SwitchReboot { node, downtime } => self.fault_switch_reboot(node, downtime),
            FaultKind::RouteReconverge { base_lag, jitter } => {
                self.fault_route_reconverge(base_lag, jitter)
            }
            FaultKind::RouteSet { node, dst, ports } => {
                self.cp.tables.set(node, dst, ports);
                self.record_fault(FaultAction::RouteChanged { node, dst });
            }
        }
    }

    pub(super) fn fault_link_down(&mut self, a: NodeId, b: NodeId, link: u32) {
        let p = (self.dp.topo.link_between(a, b, link)).expect("a validated fault plan");
        if !self.dp.link_up[p.link.0 as usize] {
            return; // already down (overlapping faults)
        }
        self.dp.link_up[p.link.0 as usize] = false;
        let dropped = self.take_down_endpoint(a, p.port) + self.take_down_endpoint(b, p.peer_port);
        self.record_fault(FaultAction::LinkDown {
            a,
            b,
            link,
            dropped,
        });
    }

    /// Clear one endpoint of a failing link: destroy every frame already
    /// committed to the dead port, silence its PFC state, and release
    /// buffer accounting so the rest of the switch keeps moving. Returns
    /// the number of packets destroyed.
    pub(super) fn take_down_endpoint(&mut self, node: NodeId, port: PortNo) -> u64 {
        if self.dp.topo.node(node).kind == NodeKind::Host {
            // NIC pause state dies with the link.
            self.dp.clear_pause_state(node, port);
            return 0;
        }
        let mut victims: Vec<QPkt> = Vec::new();
        {
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            let eg = &mut sw.egress[port.0 as usize];
            for q in eg.queues.iter_mut() {
                victims.extend(q.drain_all());
            }
            eg.ctrl.clear();
        }
        self.dp.clear_pause_state(node, port);
        let dropped = victims.len() as u64;
        if dropped > 0 {
            self.cp.dl.note_bytes_moved();
        }
        for qp in victims {
            self.drop_packet(node, &qp.pkt, DropReason::LinkDown);
            self.release_ingress(node, qp.ingress, &qp.pkt);
        }
        // Silence PFC issued *by* this endpoint: the dead channel pauses
        // no one any more, so its open spans close.
        let now = self.now();
        let mut silenced: Vec<Priority> = Vec::new();
        {
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            let ing = &mut sw.ingress[port.0 as usize];
            for pr in 0..Priority::COUNT {
                if ing.pause_sent[pr] {
                    ing.pause_sent[pr] = false;
                    silenced.push(Priority(pr as u8));
                }
            }
        }
        for prio in silenced {
            self.cp
                .dl
                .note_pause(self.dp.chan(node, port, prio.index()), false);
            let key = self.dp.pause_key(RxQueue {
                node,
                port,
                priority: prio,
            });
            if let Some(log) = self.stats.pause.get_mut(&key) {
                if log.intervals.is_open() {
                    log.intervals.close(now);
                }
            }
        }
        dropped
    }

    pub(super) fn fault_link_up(&mut self, a: NodeId, b: NodeId, link: u32) {
        let p = (self.dp.topo.link_between(a, b, link)).expect("a validated fault plan");
        if self.dp.link_up[p.link.0 as usize] {
            return; // already up
        }
        self.dp.link_up[p.link.0 as usize] = true;
        self.record_fault(FaultAction::LinkUp { a, b, link });
        self.kick_transmitter(a, p.port);
        self.kick_transmitter(b, p.peer_port);
    }

    pub(super) fn fault_switch_reboot(&mut self, node: NodeId, downtime: SimDuration) {
        if self.cp.reboots.contains_key(&node) {
            return; // already mid-reboot
        }
        let ports: Vec<pfcsim_topo::graph::PortRef> = self.dp.topo.ports(node).to_vec();
        let mut downed: Vec<LinkId> = Vec::new();
        let mut dropped = 0u64;
        for p in &ports {
            if !self.dp.link_up[p.link.0 as usize] {
                continue; // already down; not this reboot's to restore
            }
            self.dp.link_up[p.link.0 as usize] = false;
            downed.push(p.link);
            dropped += self.take_down_endpoint(node, p.port);
            dropped += self.take_down_endpoint(p.peer, p.peer_port);
        }
        // Wipe what take_down_endpoint leaves behind on the rebooting
        // switch itself: shaper holds and frames mid-serialization.
        for p in &ports {
            let held: Vec<Packet> = {
                let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
                let ing = &mut sw.ingress[p.port.0 as usize];
                ing.shaper_scheduled = false;
                ing.shaper_q.drain(..).collect()
            };
            for pkt in held {
                dropped += 1;
                self.drop_packet(node, &pkt, DropReason::LinkDown);
                self.release_ingress(node, p.port, &pkt);
            }
            let in_flight = {
                let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
                sw.egress[p.port.0 as usize].in_flight.take()
            };
            if let Some(InFlight::Data(qp)) = in_flight {
                dropped += 1;
                self.drop_packet(node, &qp.pkt, DropReason::LinkDown);
                self.release_ingress(node, qp.ingress, &qp.pkt);
            }
        }
        // Hard power-cycle: every counter back to zero (the queues are
        // all empty now; this clears any residual accounting).
        {
            let first = self.dp.chan(node, PortNo(0), 0);
            let sw = self.dp.switches[node.0 as usize].as_mut().expect("switch");
            sw.buffered = Bytes::ZERO;
            for (pi, ing) in sw.ingress.iter_mut().enumerate() {
                ing.count = [Bytes::ZERO; Priority::COUNT];
                for pr in 0..Priority::COUNT {
                    if ing.pause_sent[pr] {
                        ing.pause_sent[pr] = false;
                        let c = first + pi * Priority::COUNT + pr;
                        self.cp.dl.note_pause(c, false);
                    }
                }
                ing.per_flow.clear();
            }
        }
        self.cp.dl.note_bytes_moved();
        // Forget the forwarding state until the restore.
        let routes: Vec<(NodeId, Vec<PortNo>)> = self
            .cp
            .tables
            .entries(node)
            .map(|(d, p)| (d, p.to_vec()))
            .collect();
        for (d, _) in &routes {
            self.cp.tables.remove(node, *d);
        }
        self.cp.reboots.insert(
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

    pub(super) fn on_switch_restore(&mut self, node: NodeId) {
        let Some(st) = self.cp.reboots.remove(&node) else {
            return;
        };
        for (dst, ports) in st.routes {
            self.cp.tables.set(node, dst, ports);
        }
        for l in st.links {
            if self.dp.link_up[l.0 as usize] {
                continue; // repaired early by an explicit LinkUp
            }
            self.dp.link_up[l.0 as usize] = true;
            let link = self.dp.topo.link(l).clone();
            self.kick_transmitter(link.a, link.a_port);
            self.kick_transmitter(link.b, link.b_port);
        }
        self.record_fault(FaultAction::SwitchRestored { node });
    }

    /// Every switch independently recomputes shortest paths over the
    /// currently-up links and applies the result after its own lag — the
    /// paper's Case 1 mechanism: while lags disagree, neighbouring
    /// switches forward on inconsistent trees and transient loops form.
    pub(super) fn fault_route_reconverge(&mut self, base_lag: SimDuration, jitter: SimDuration) {
        let now = self.now();
        let switch_list: Vec<NodeId> = self.dp.topo.switches().collect();
        let host_list: Vec<NodeId> = self.dp.topo.hosts().collect();
        // Per-switch application lag, drawn once per switch.
        let mut lags: BTreeMap<NodeId, SimDuration> = BTreeMap::new();
        for &s in &switch_list {
            let j = if jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_ps(self.cp.fault_rng.gen_range(jitter.as_ps() + 1))
            };
            lags.insert(s, base_lag + j);
        }
        let n = self.dp.topo.node_count();
        for &dst in &host_list {
            // BFS from the destination over up links only.
            let mut dist = vec![u32::MAX; n];
            dist[dst.0 as usize] = 0;
            let mut q = std::collections::VecDeque::new();
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                if u != dst && self.dp.topo.node(u).kind == NodeKind::Host {
                    continue; // hosts do not forward
                }
                let du = dist[u.0 as usize];
                for p in self.dp.topo.ports(u) {
                    if !self.dp.link_up[p.link.0 as usize] {
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
                if self.cp.reboots.contains_key(&s) {
                    continue; // a rebooting switch has no control plane
                }
                let ds = dist[s.0 as usize];
                let ports: Vec<PortNo> = if ds == u32::MAX {
                    Vec::new() // unreachable: the row black-holes
                } else {
                    self.dp
                        .topo
                        .ports(s)
                        .iter()
                        .filter(|p| {
                            self.dp.link_up[p.link.0 as usize]
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
}

/// Configuration of the control plane: route updates (also mid-run), the
/// fault plan, tables, sampled queues and recovery.
impl NetSim {
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
        let idx = self.cp.route_updates.len();
        self.cp.route_updates.push(RouteUpdate {
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
        plan.validate(&self.dp.topo)?;
        self.dp.pause_headroom = plan.pause_headroom;
        // Flaps unroll into their individual down/up edges here, so the
        // runtime only ever sees instantaneous faults.
        let mut evs: Vec<(SimTime, FaultKind)> = Vec::new();
        for ev in plan.events {
            match ev.kind {
                FaultKind::LinkFlap {
                    a,
                    b,
                    link,
                    down_for,
                    period,
                    cycles,
                } => {
                    for c in 0..cycles {
                        let down_at = ev.at + period.saturating_mul(c as u64);
                        evs.push((down_at, FaultKind::LinkDown { a, b, link }));
                        evs.push((down_at + down_for, FaultKind::LinkUp { a, b, link }));
                    }
                }
                kind => evs.push((ev.at, kind)),
            }
        }
        evs.sort_by_key(|(t, _)| *t);
        self.cp.fault_events = evs;
        Ok(())
    }

    /// Mutable access to the forwarding tables (before the run starts).
    pub fn tables_mut(&mut self) -> &mut ForwardingTables {
        assert!(!self.started, "mutate tables before running");
        &mut self.cp.tables
    }

    /// Keep occupancy series (`NetStats::occupancy`, `flow_occupancy`)
    /// for the given ingress queues only (default: every switch ingress
    /// × every priority in use). `Ev::Sample` fires as before, and
    /// telemetry's occupancy probe still measures every queue: this
    /// decides only which series the run keeps.
    pub fn watch_only(&mut self, keys: impl IntoIterator<Item = RxQueue>) {
        let mut v: Vec<RxQueue> = keys.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        if self.started {
            self.cp.sample_keys = v.clone();
        }
        self.cp.watch_keys = Some(v);
    }

    /// Drop the occupancy series recorded so far and record no more. For
    /// a what-if probe: no verdict reads them, and `Ev::Sample` keeps
    /// firing over the empty key set, so event order and counts are
    /// those of a run that kept recording.
    pub(crate) fn forget_occupancy_history(&mut self) {
        self.cp.sample_keys.clear();
        self.stats.occupancy.clear();
        self.stats.flow_occupancy.clear();
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
        self.dp.cfg.stop_on_deadlock = false;
        self.dp.cfg.recovery = Some(rc);
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
}

#[cfg(test)]
mod tests {
    use pfcsim_simcore::time::{SimDuration, SimTime};
    use pfcsim_topo::builders::{square, LinkSpec};
    use pfcsim_topo::ids::{NodeId, PortNo, Priority};

    use crate::bdg::RxQueue;
    use crate::config::SimConfig;
    use crate::flow::FlowSpec;
    use crate::sim::{NetSim, SimBuilder};

    /// Every switch ingress of `nodes` on the default class.
    fn keys_of(sim: &NetSim, nodes: &[NodeId]) -> Vec<RxQueue> {
        let mut keys = Vec::new();
        for &node in nodes {
            for port in 0..sim.dp.topo.ports(node).len() {
                keys.push(RxQueue {
                    node,
                    port: PortNo(port as u16),
                    priority: Priority::DEFAULT,
                });
            }
        }
        keys
    }

    /// Paused right after the sample at `t`: each watched key's newest
    /// sample, and each of its flows', is the live count, taken at `t`;
    /// every other series stopped earlier.
    fn assert_newest_samples_are_live(sim: &NetSim, t: SimTime) {
        let stats = &sim.stats;
        for (key, series) in &stats.occupancy {
            let newest = *series.samples().last().expect("a series has samples");
            if sim.cp.sample_keys.binary_search(key).is_err() {
                assert!(newest.0 < t, "{key:?} is not watched but sampled at {t}");
                continue;
            }
            let ing = sim.dp.ingress(*key).expect("a switch ingress");
            let count = ing.count[key.priority.index()].get();
            assert_eq!(newest, (t, count), "{key:?} at {t}");
            for (&(p, flow), &bytes) in ing.per_flow.iter() {
                if p != key.priority.0 {
                    continue;
                }
                let series = &stats.flow_occupancy[&(*key, flow)];
                let newest = *series.samples().last().expect("a series has samples");
                assert_eq!(newest, (t, bytes.get()), "{key:?} flow {flow} at {t}");
            }
        }
        for &key in &sim.cp.sample_keys {
            assert!(stats.occupancy.contains_key(&key), "{key:?} never sampled");
        }
    }

    #[test]
    fn in_order_sample_walk_drops_or_misplaces_no_sample() {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        // An interval no datapath event lands on, except at multiples of
        // 100 ticks: pausing at a tick stops right after its sample.
        let iv = SimDuration::from_ps(1_000_001);
        let cfg = SimConfig {
            sample_interval: Some(iv),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        sim.add_flow(
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        );
        sim.add_flow(
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        );
        // A late flow: its (queue, flow) series start mid-run.
        sim.add_flow(
            FlowSpec::cbr(3, h[1], h[2], pfcsim_simcore::units::BitRate::from_gbps(6))
                .pinned(vec![h[1], s[1], s[2], h[2]])
                .starting_at(SimTime::from_us(300)),
        );
        // Start on two switches only, so widening adds keys the maps
        // lack between keys they hold.
        sim.watch_only(keys_of(&sim, &[s[1], s[3]]));
        let horizon = SimTime::from_us(700);
        let tick = |k: u64| SimTime::ZERO + iv.saturating_mul(k);
        let step = |sim: &mut NetSim, k: u64| {
            assert!(sim.advance_until(tick(k), horizon).is_none());
            assert_newest_samples_are_live(sim, tick(k));
        };
        step(&mut sim, 7);
        step(&mut sim, 41);
        sim.watch_only(keys_of(&sim, &[s[0], s[1], s[2], s[3]]));
        step(&mut sim, 42);
        step(&mut sim, 155);
        // Narrowing leaves series in the maps the walk must pass over.
        sim.watch_only(keys_of(&sim, &[s[0], s[2]]));
        step(&mut sim, 156);
        step(&mut sim, 299);
        step(&mut sim, 333);
        step(&mut sim, 389);
        let mut sim = NetSim::resume(sim.checkpoint().expect("checkpoint")).expect("resume");
        step(&mut sim, 390);
        sim.watch_only(keys_of(&sim, &[s[1], s[2]]));
        step(&mut sim, 391);
        step(&mut sim, 611);
        let late = (sim.stats.flow_occupancy.keys()).filter(|(_, f)| f.0 == 3);
        assert!(late.count() > 0, "the late flow was never sampled");
    }
}

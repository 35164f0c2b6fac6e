//! Hybrid fluid/packet co-simulation: elide the event chains of provably
//! uncontended steady-state flows and fold their effect in closed form.
//!
//! The paper's deadlock-formation argument is decided by packet-level
//! dynamics only near a PFC threshold or inside a cyclic buffer
//! dependency; everywhere else a steady-state flow advances as a fluid
//! rate without changing the verdict. This module makes that observation
//! executable: at `start()` every flow is classified **FLUID** or
//! **PACKET**, once for the whole run. A fluid flow's per-packet events
//! (`FlowTick`, `HostTxDone`, per-hop `Arrive`/`TxDone`) are never
//! scheduled; its deliveries, residency, and meters are reconstructed
//! exactly at `finalize()` from the closed-form lattice `t_k = t0 + k·T`.
//!
//! # Why elision is invisible (the correctness argument)
//!
//! A flow is classified fluid only when *all* of the following hold, so
//! its full-packet execution is provably the undisturbed lattice:
//!
//! * **Deterministic lattice.** Demand is CBR (or finite CBR) with a
//!   stop time or byte cap: ticks fall at `t_k = t0 + k·T` with
//!   `T = size·8/rate`, and the per-tick path is a fixed simple walk
//!   (pinned ports or ECMP tables, which are per-flow deterministic and
//!   frozen — runs with scheduled route updates, reconvergence faults,
//!   or flood-on-miss are gated).
//! * **No queueing.** Every hop serializes within 0.9 of the injection
//!   interval (`s_i ≤ 0.9·T`), so at most one packet of the flow
//!   occupies any switch at a time and per-hop latency is constant.
//! * **Switch exclusivity.** No other flow's packets can ever touch a
//!   path switch: every other flow's reachable-switch *footprint*
//!   (computed by the same deterministic bounded walk, so even wildly
//!   looping flows get exact footprints) is disjoint from the path, and
//!   the source NIC carries no other flow. Shared-buffer coupling
//!   (`dynamic_alpha`) is refused on path switches, so no global state
//!   links a path switch to the rest of the fabric.
//! * **No PFC.** Peak occupancy (one packet, with 2× headroom demanded)
//!   stays below half of XOFF, so path switches never pause and never
//!   enter the deadlock tracker.
//! * **No fault on the path.** A link fault that names one of the
//!   path's links keeps the flow packet for the whole run.
//!
//! # Why nothing is re-checked at run time
//!
//! Routes are frozen and `Datapath::next_hop` ignores link state, so a
//! link fault drops packets but never reroutes them: no packet but the
//! flow's own elided ones ever reaches a path switch. A path ingress
//! therefore never holds more than one packet and never pauses; a
//! PFC-loss or PFC-delay fault armed at a path switch acts only on PFC
//! frames that switch never sends; a fault on another link of a path
//! switch acts on a link that carries nothing. A classification made at
//! `start()` holds for the whole run, so a fluid flow never returns to
//! the packet engine and the fluid flows never compete for a channel.
//!
//! Under those conditions the surviving event stream pops in exactly
//! the order the full-packet run would pop it (handlers of other flows
//! touch disjoint state), pause histories are bit-identical (path
//! switches pause in neither run), and deadlock detection fires at the
//! same instant with the same witness (the tracker's epoch advances on
//! pause transitions only). The fold then reconstructs per-flow
//! conservation totals exactly, including the in-flight tail at the
//! boundary `E`:
//!
//! * run stopped by a confirmed deadlock at `td`: events strictly
//!   before `td` ran, so packet `k` was generated iff `t_k < td` and
//!   delivered iff `t_k + L < td`;
//! * run reached the horizon `E` (the step loop pops events at exactly
//!   the limit): generated iff `t_k ≤ E`, delivered iff `t_k + L ≤ E`.
//!
//! Undelivered generated packets are placed by residency window: in the
//! source NIC during `[t_k, t_k+s_0)`, at hop `i` during
//! `[t_k+a_i, t_k+a_i+s_i)` (counted stuck *and* buffered, exactly as
//! the full-packet stuck-walk counts a frame mid-serialization), and on
//! a wire otherwise (counted by neither run — the stuck-walk only
//! inspects queues and NIC slots). One *sentinel* tick per fluid flow —
//! scheduled at the flow's final full-packet event time and swallowed on
//! pop — keeps the queue meaningfully non-empty exactly as long as the
//! elided chain would have, so quiescence fires at the same instant in
//! both runs. A run truncated by the `max_events` budget is the one
//! documented non-equivalence: the budget counts *executed* events, so
//! eliding changes where the axe falls.
//!
//! Gated configurations: `NetSim::hybrid_gate_reason` decides whether a
//! run may classify any flow fluid. It refuses telemetry, sampling,
//! tracing, ECN, class remapping and route/reboot fault scripts; such a
//! run is full-packet, with a one-time warning through the keyed
//! registry (`crate::warn`), so a long-lived serve session toggling
//! backends never re-emits duplicates. Whether a run may fast-forward is
//! decided by `NetSim::fast_forward_step`, which refuses every run that
//! classified a flow fluid.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::route_walk;

use crate::faults::FaultKind;
use crate::flow::Demand;
use crate::sim::{Ev, NetSim};

/// A fluid path's two packets of headroom must sit below this fraction
/// of each hop's XOFF threshold.
const XOFF_FRACTION: f64 = 0.5;

/// Every hop of a fluid path must serialize a packet within this
/// fraction of the injection interval (`s_i ≤ 0.9·T`), the no-queueing
/// condition.
const CAPACITY_MARGIN: f64 = 0.9;

/// The hybrid fluid/packet backend's switch (`SimConfig::hybrid`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Master switch; `false` behaves exactly like `SimConfig::hybrid =
    /// None`.
    pub enabled: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { enabled: true }
    }
}

// ---------------------------------------------------------------------
// Region state
// ---------------------------------------------------------------------

/// One switch hop of a fluid path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FluidHop {
    /// The switch.
    pub(crate) node: NodeId,
    /// Ingress port the flow's packets arrive on.
    pub(crate) in_port: PortNo,
    /// Arrival offset from the packet's tick: `a_i = s0 + d0 + Σ_{j<i}(s_j + d_j)`.
    pub(crate) arr: SimDuration,
    /// Serialization time out of this switch (`s_i`; the residency window
    /// is `[a_i, a_i + s_i)` — the frame is buffered while serializing).
    pub(crate) ser: SimDuration,
}

/// The frozen analytic description of a fluid flow's lattice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FluidPlan {
    /// First tick (the flow's start time).
    pub(crate) t0: SimTime,
    /// Injection interval `T = size·8/rate`.
    pub(crate) tick: SimDuration,
    /// Packet size.
    pub(crate) size: Bytes,
    /// Finite-CBR packet cap (`ceil(total/size)`).
    pub(crate) cap: Option<u64>,
    /// Generation stops strictly before this instant (flow stop and/or
    /// drain stop; `FlowStop` outranks an equal-time tick by sequence).
    pub(crate) gen_end: Option<SimTime>,
    /// Source NIC serialization time (`s_0`; residency `[t_k, t_k+s_0)`).
    pub(crate) host_ser: SimDuration,
    /// Switch hops in path order.
    pub(crate) hops: Vec<FluidHop>,
    /// Injection-to-delivery latency `L = s_0 + d_0 + Σ(s_i + d_i)`.
    pub(crate) latency: SimDuration,
    /// Destination host (for its `received` counter).
    pub(crate) dst: NodeId,
    /// Events one delivered packet would have cost: tick + NIC tx-done +
    /// per-hop arrive/tx-done + final arrive = `2·hops + 3`.
    pub(crate) events_per_pkt: u64,
}

/// Per-flow region tag, fixed at `start()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum FlowMode {
    /// Full datapath.
    Packet,
    /// Analytic lattice for the whole run.
    Fluid {
        /// The frozen lattice description.
        plan: FluidPlan,
    },
}

/// Live hybrid-backend state (`NetSim::hybrid`); also the checkpoint
/// snapshot — everything here is plain data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HybridState {
    /// Region tag per dense flow index.
    pub(crate) modes: Vec<FlowMode>,
}

/// Aggregate results of the finalize fold.
#[derive(Debug, Default, Clone)]
pub(crate) struct HybridTotals {
    /// Analytic bytes resident in switch buffers at the boundary.
    pub(crate) buffered: Bytes,
    /// Events the backend did not execute.
    pub(crate) events_elided: u64,
    /// Flows that ran fluid.
    pub(crate) fluid_flows: u64,
}

/// Closed-form per-flow deltas, applied to `stats.flows` after the
/// packet-side stuck-walk (which *assigns* stuck counters; these add).
#[derive(Debug, Clone)]
pub(crate) struct FlowFold {
    pub(crate) flow: FlowId,
    pub(crate) dst: NodeId,
    pub(crate) size: Bytes,
    pub(crate) gen_pkts: u64,
    pub(crate) del_pkts: u64,
    /// Undelivered packets resident in the NIC or a switch (stuck).
    pub(crate) stuck_pkts: u64,
    /// Subset of `stuck_pkts` resident in a switch (counted buffered).
    pub(crate) switch_pkts: u64,
    /// Delivery span for the meter (valid when `del_pkts > 0`).
    pub(crate) first_del: SimTime,
    pub(crate) last_del: SimTime,
    pub(crate) elided: u64,
}

// ---------------------------------------------------------------------
// Lattice arithmetic
// ---------------------------------------------------------------------

/// Number of lattice indices `k ≥ 0` with `t0 + k·tick < bound`
/// (strict) or `≤ bound` (inclusive). Exact in u128 picoseconds.
fn ticks_until(t0: SimTime, tick: SimDuration, bound: SimTime, inclusive: bool) -> u64 {
    if bound < t0 {
        return 0;
    }
    let d = (bound - t0).as_ps() as u128;
    let t = tick.as_ps() as u128;
    debug_assert!(t > 0, "zero tick");
    let n = if inclusive { d / t + 1 } else { d.div_ceil(t) };
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The lattice instant `t0 + k·tick`.
fn tick_at(t0: SimTime, tick: SimDuration, k: u64) -> SimTime {
    let ps = t0.as_ps() as u128 + k as u128 * tick.as_ps() as u128;
    SimTime::from_ps(u64::try_from(ps).expect("lattice instant overflows u64 ps"))
}

impl FluidPlan {
    /// Upper lattice bound (exclusive) on generation, ignoring the run
    /// boundary: the finite-CBR cap and the stop instant (ticks at
    /// exactly `gen_end` lose to the stop by sequence number, so the
    /// bound is always strict).
    fn gen_cap(&self) -> u64 {
        let mut hi = u64::MAX;
        if let Some(cap) = self.cap {
            hi = hi.min(cap);
        }
        if let Some(ge) = self.gen_end {
            hi = hi.min(ticks_until(self.t0, self.tick, ge, false));
        }
        hi
    }

    /// Fold the whole lattice of flow `flow` against the run boundary
    /// `e` (`inclusive` selects horizon semantics, strict selects
    /// deadlock-stop).
    fn fold(&self, flow: FlowId, e: SimTime, inclusive: bool) -> FlowFold {
        let mut out = FlowFold {
            flow,
            dst: self.dst,
            size: self.size,
            gen_pkts: 0,
            del_pkts: 0,
            stuck_pkts: 0,
            switch_pkts: 0,
            first_del: SimTime::ZERO,
            last_del: SimTime::ZERO,
            elided: 0,
        };
        let n_gen = self
            .gen_cap()
            .min(ticks_until(self.t0, self.tick, e, inclusive));
        if n_gen == 0 {
            return out;
        }
        // Delivered iff t_k + L <(≤) e  ⇔  t_k <(≤) e − L.
        let n_del = if e.as_ps() >= self.latency.as_ps() {
            n_gen.min(ticks_until(self.t0, self.tick, e - self.latency, inclusive))
        } else {
            0
        };
        out.gen_pkts = n_gen;
        out.del_pkts = n_del;
        out.elided = n_del * self.events_per_pkt + (n_gen - n_del);
        if n_del > 0 {
            out.first_del = self.t0 + self.latency;
            out.last_del = tick_at(self.t0, self.tick, n_del - 1) + self.latency;
        }
        // The in-flight tail: place each undelivered generated packet by
        // its residency window at the boundary, mirroring the
        // full-packet stuck-walk (NIC slot or mid-serialization at a
        // switch counts; a frame on the wire is invisible to both).
        for k in n_del..n_gen {
            let t_k = tick_at(self.t0, self.tick, k);
            debug_assert!(e >= t_k, "generated packets start before the boundary");
            let off = (e - t_k).as_ps();
            let in_window = |start: u64, len: u64| {
                if inclusive {
                    // in-location iff start ≤ e ∧ end > e
                    start <= off && start + len > off
                } else {
                    // in-location iff start < e ∧ end ≥ e
                    start < off && start + len >= off
                }
            };
            let host = if inclusive {
                self.host_ser.as_ps() > off
            } else {
                off > 0 && self.host_ser.as_ps() >= off
            };
            if host {
                out.stuck_pkts += 1;
                continue;
            }
            if (self.hops.iter()).any(|hop| in_window(hop.arr.as_ps(), hop.ser.as_ps())) {
                out.stuck_pkts += 1;
                out.switch_pkts += 1;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Classification, elision hooks, and the finalize fold
// ---------------------------------------------------------------------

impl NetSim {
    /// A whole-run reason the hybrid backend must stay off, if any. It
    /// decides only whether flows may be classified fluid; whether the
    /// run may fast-forward is `NetSim::fast_forward_step`'s decision.
    fn hybrid_gate_reason(&self) -> Option<&'static str> {
        if self.telem.is_some() {
            return Some("telemetry");
        }
        if self.dp.cfg.sample_interval.is_some() {
            return Some("occupancy sampling");
        }
        if self.dp.cfg.ecn.is_some() {
            return Some("ECN marking");
        }
        if self.dp.traced.iter().any(|&t| t) {
            return Some("packet-lifecycle tracing");
        }
        if !self.cp.route_updates.is_empty() {
            return Some("scheduled route updates");
        }
        if self.dp.cfg.flood_on_miss {
            return Some("flood-on-miss forwarding");
        }
        if self.dp.cfg.hop_class_mode.is_some() || self.dp.cfg.ttl_class_mode.is_some() {
            return Some("hop/TTL class remapping");
        }
        if self.cp.fault_events.iter().any(|(_, k)| {
            matches!(
                k,
                FaultKind::RouteReconverge { .. }
                    | FaultKind::RouteSet { .. }
                    | FaultKind::SwitchReboot { .. }
            )
        }) {
            return Some("route/reboot fault scripts");
        }
        None
    }

    /// The deterministic bounded walk every flow's packets follow:
    /// collects reachable switches into `out` (pre-cleared). Exact even
    /// for looping or routeless flows — per-flow ECMP is deterministic
    /// and frozen (route updates are gated), so a revisited switch
    /// closes the reachable set, and TTL bounds the hop count.
    fn hybrid_footprint(&self, dense: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let (dp, spec) = (&self.dp, &self.dp.flows.spec[dense]);
        let step = |node, _| {
            if dp.topo.node(node).kind != NodeKind::Switch || out.contains(&node) {
                return None;
            }
            out.push(node);
            dp.next_hop(&self.cp.tables, spec.id, node, spec.dst)
        };
        // The NIC hop, then at most TTL + 1 switches.
        route_walk(&dp.topo, spec.src, None, step)
            .take(spec.ttl as usize + 2)
            .for_each(drop);
    }

    /// Per-flow eligibility: walk the path and check every local
    /// condition (lattice, no-queueing, buffer headroom, scan cadence,
    /// fault gate). Exclusivity is checked by the caller.
    fn hybrid_flow_plan(&self, dense: usize) -> Option<FluidPlan> {
        let spec = &self.dp.flows.spec[dense];
        let (rate, total) = match spec.demand {
            Demand::Cbr(r) => (r, None),
            Demand::CbrFinite { rate, total } => (rate, Some(total)),
            _ => return None,
        };
        if rate.is_zero() {
            return None;
        }
        // Bounded generation: an explicit stop or a byte cap. A drain
        // stop caps `gen_end` but does not by itself make a flow
        // eligible (its `FlowStop` is scheduled before `start()`, which
        // inverts the equal-time ordering against `FlowStart`).
        if spec.stop.is_none() && total.is_none() {
            return None;
        }
        let size = spec.packet_size.unwrap_or(self.dp.cfg.default_packet_size);
        if size.is_zero() {
            return None;
        }
        let tick = rate.serialization_time(size);
        if tick.is_zero() {
            return None;
        }
        let gen_end = match (spec.stop, self.drain_stop) {
            (Some(s), Some(d)) => Some(s.min(d)),
            (s, d) => s.or(d),
        };
        if let Some(ge) = gen_end {
            if spec.start >= ge {
                return None;
            }
        }
        let cap = total.map(|t| t.get().div_ceil(size.get().max(1)));
        // Source NIC: single-homed host, exclusive to this flow.
        if self.dp.topo.node(spec.src).kind != NodeKind::Host
            || self.dp.topo.ports(spec.src).len() != 1
            || self.dp.topo.node(spec.dst).kind != NodeKind::Host
        {
            return None;
        }
        let margin_ok =
            |s: SimDuration| (s.as_ps() as f64) <= CAPACITY_MARGIN * (tick.as_ps() as f64);
        let p0 = self.dp.pinfo(spec.src, PortNo(0));
        let host_ser = p0.rate.serialization_time(size);
        if !margin_ok(host_ser) {
            return None;
        }
        let mut links = vec![p0.link.0];
        let mut hops: Vec<FluidHop> = Vec::new();
        let mut arr = host_ser + p0.delay;
        let mut delays = vec![p0.delay];
        let (mut at, mut in_port) = (p0.peer, p0.peer_port);
        let step = |node, _| {
            let on = node != spec.dst;
            on.then(|| self.dp.next_hop(&self.cp.tables, spec.id, node, spec.dst))?
        };
        for (node, out) in route_walk(&self.dp.topo, at, Some(in_port), step) {
            if self.dp.topo.node(node).kind != NodeKind::Switch {
                return None; // delivered to the wrong host
            }
            if hops.iter().any(|h| h.node == node) {
                return None; // not a simple path
            }
            if hops.len() >= 64 || (hops.len() + 2) as u32 > spec.ttl as u32 {
                return None; // TTL headroom (arrive decrements, 0 drops)
            }
            let sw = self.dp.switches[node.0 as usize].as_ref()?;
            // Static thresholds only: shared-buffer coupling would let
            // foreign traffic move this switch's XOFF under us.
            if self.dp.pfc_of(node).dynamic_alpha.is_some() {
                return None;
            }
            if sw.ingress[in_port.0 as usize].shaper.is_some() {
                return None;
            }
            let xoff = self.dp.xoff_of(node, in_port);
            let headroom = 2 * size.get();
            if (headroom as f64) > XOFF_FRACTION * xoff.get() as f64
                || headroom > self.dp.cfg.switch_buffer.get()
            {
                return None;
            }
            let info = self.dp.pinfo(node, out.port);
            let ser = info.rate.serialization_time(size);
            if !margin_ok(ser) {
                return None;
            }
            hops.push(FluidHop {
                node,
                in_port,
                arr,
                ser,
            });
            links.push(info.link.0);
            delays.push(info.delay);
            arr = arr + ser + info.delay;
            (at, in_port) = (out.peer, out.peer_port);
        }
        if at != spec.dst || hops.is_empty() {
            return None;
        }
        let latency = arr; // last hop's ser + delay already added
                           // Deadlock-stop boundary proof needs every elided event to be
                           // scheduled *after* the scan that detects (strictly smaller
                           // lead time than the scan period).
        if self.dp.cfg.stop_on_deadlock {
            if let Some(iv) = self.dp.cfg.deadlock_scan_interval {
                let lead_ok = tick < iv
                    && host_ser < iv
                    && hops.iter().all(|h| h.ser < iv)
                    && delays.iter().all(|&d| d < iv);
                if !lead_ok {
                    return None;
                }
            }
        }
        // Fault gate: any link event on the path forces packet mode for
        // the whole run (no static windows to reason about).
        let touched = self.cp.fault_events.iter().any(|(_, k)| match *k {
            FaultKind::LinkDown { a, b, link }
            | FaultKind::LinkUp { a, b, link }
            | FaultKind::LinkFlap { a, b, link, .. } => {
                (self.dp.topo.link_between(a, b, link)).is_some_and(|p| links.contains(&p.link.0))
            }
            _ => false,
        });
        if touched {
            return None;
        }
        let events_per_pkt = 2 * hops.len() as u64 + 3;
        Some(FluidPlan {
            t0: spec.start,
            tick,
            size,
            cap,
            gen_end,
            host_ser,
            hops,
            latency,
            dst: spec.dst,
            events_per_pkt,
        })
    }

    /// Classify every flow at the end of `start()`. Installs
    /// `NetSim::hybrid` only when at least one flow is admitted, so a
    /// gated or fruitless run carries zero per-event overhead.
    pub(crate) fn hybrid_classify(&mut self) {
        debug_assert!(self.hybrid.is_none(), "classification runs once");
        if !self.dp.cfg.hybrid.as_ref().is_some_and(|h| h.enabled) {
            return;
        }
        if let Some(reason) = self.hybrid_gate_reason() {
            crate::warn::warn_once(&format!("gate:{reason}"), || {
                format!(
                    "pfcsim: hybrid fluid/packet backend unavailable for this run \
                     ({reason}); running full-packet"
                )
            });
            return;
        }
        // Per-flow plans, then switch exclusivity over *all* flows.
        let n = self.dp.flows.spec.len();
        let mut touches: Vec<u32> = vec![0; self.dp.topo.node_count()];
        let mut scratch = Vec::new();
        for i in 0..n {
            self.hybrid_footprint(i, &mut scratch);
            for &sw in &scratch {
                touches[sw.0 as usize] += 1;
            }
        }
        // Source-host exclusivity (NIC arbitration is per-host).
        let mut src_flows: Vec<u32> = vec![0; self.dp.topo.node_count()];
        for s in &self.dp.flows.spec {
            src_flows[s.src.0 as usize] += 1;
        }
        let modes: Vec<FlowMode> = (0..n)
            .map(|i| match self.hybrid_flow_plan(i) {
                Some(plan)
                    if src_flows[self.dp.flows.spec[i].src.0 as usize] == 1
                        && plan.hops.iter().all(|h| touches[h.node.0 as usize] == 1) =>
                {
                    FlowMode::Fluid { plan }
                }
                _ => FlowMode::Packet,
            })
            .collect();
        // One sentinel tick per fluid flow at its final full-packet event
        // time: the dead tick after generation ends, or the last
        // delivery, whichever is later. The pop is swallowed, but it
        // keeps the queue meaningfully non-empty exactly as long as the
        // elided chain would have — so quiescence time, and the
        // `detected_at` of a final-scan verdict, match the full-packet
        // run (the step loop reads `now()` for both).
        let sentinels: Vec<(FlowId, SimTime)> = modes
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                let FlowMode::Fluid { plan } = m else {
                    return None;
                };
                let cap = plan.gen_cap();
                let mut at = tick_at(plan.t0, plan.tick, cap);
                if cap > 0 {
                    at = at.max(tick_at(plan.t0, plan.tick, cap - 1) + plan.latency);
                }
                Some((self.dp.flows.spec[i].id, at))
            })
            .collect();
        if sentinels.is_empty() {
            return;
        }
        self.hybrid = Some(Box::new(HybridState { modes }));
        for (flow, at) in sentinels {
            self.sched(at, Ev::FlowTick { flow });
        }
    }

    /// Whether `f` runs fluid: its `FlowStart` schedules no tick chain,
    /// and its one tick, the sentinel, is swallowed on pop.
    pub(crate) fn hybrid_is_fluid(&self, f: FlowId) -> bool {
        self.hybrid
            .as_deref()
            .is_some_and(|h| matches!(h.modes.get(self.dp.fidx(f)), Some(FlowMode::Fluid { .. })))
    }

    /// Compute every fluid flow's closed-form deltas against the run
    /// boundary. Called at the top of `finalize()` — before the final
    /// deadlock scan, so the boundary reflects whether the *run*
    /// actually stopped on a detection — and applied after the
    /// stuck-walk. Pure with respect to packet-side state.
    pub(crate) fn hybrid_compute_folds(&self) -> Option<(Vec<FlowFold>, HybridTotals)> {
        let h = self.hybrid.as_deref()?;
        let (e, inclusive) = match (&self.cp.deadlock, self.dp.cfg.stop_on_deadlock) {
            // Deadlock-stop: events strictly before the detection ran.
            (Some((at, _)), true) => (*at, false),
            // Horizon: the step loop pops events at exactly the limit.
            _ => (self.horizon, true),
        };
        let mut folds = Vec::new();
        let mut totals = HybridTotals::default();
        for (i, mode) in h.modes.iter().enumerate() {
            let FlowMode::Fluid { plan } = mode else {
                continue;
            };
            let fold = plan.fold(self.dp.flows.spec[i].id, e, inclusive);
            totals.fluid_flows += 1;
            totals.events_elided += fold.elided;
            totals.buffered += Bytes::new(fold.switch_pkts * plan.size.get());
            folds.push(fold);
        }
        Some((folds, totals))
    }

    /// Write the folds through to flow stats and host counters.
    /// Stuck counters *add* (the packet-side stuck-walk has already
    /// assigned its totals); meters merge by span.
    pub(crate) fn hybrid_apply_folds(&mut self, folds: &[FlowFold]) {
        for f in folds {
            if f.gen_pkts == 0 {
                // The run boundary precedes the flow's first tick: the
                // packet run would never have touched its stats entry.
                continue;
            }
            let sz = f.size.get();
            let fs = self.stats.flow_mut(f.flow);
            fs.injected_packets += f.gen_pkts;
            fs.injected_bytes += Bytes::new(f.gen_pkts * sz);
            fs.delivered_packets += f.del_pkts;
            fs.delivered_bytes += Bytes::new(f.del_pkts * sz);
            fs.stuck_packets += f.stuck_pkts;
            fs.stuck_bytes += Bytes::new(f.stuck_pkts * sz);
            if f.del_pkts > 0 {
                fs.meter
                    .record_span(f.first_del, f.last_del, Bytes::new(f.del_pkts * sz));
            }
            if let Some(host) = self.dp.hosts[f.dst.0 as usize].as_mut() {
                host.received += Bytes::new(f.del_pkts * sz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EcnConfig, SimConfig, TtlClassConfig};
    use crate::faults::FaultPlan;
    use crate::flow::FlowSpec;
    use crate::sim::SimBuilder;
    use crate::telemetry::TelemetryConfig;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{line, Built, LinkSpec};

    fn plan(hops: usize) -> FluidPlan {
        // 1 KB packets at one per µs; NIC and hops serialize in 250 ns,
        // 100 ns wires.
        let tick = SimDuration::from_ps(1_000_000);
        let ser = SimDuration::from_ps(250_000);
        let delay = SimDuration::from_ps(100_000);
        let mut arr = ser + delay;
        let hops: Vec<FluidHop> = (0..hops)
            .map(|i| {
                let h = FluidHop {
                    node: NodeId(100 + i as u32),
                    in_port: PortNo(0),
                    arr,
                    ser,
                };
                arr = arr + ser + delay;
                h
            })
            .collect();
        let events_per_pkt = 2 * hops.len() as u64 + 3;
        FluidPlan {
            t0: SimTime::from_us(10),
            tick,
            size: Bytes::new(1000),
            cap: None,
            gen_end: Some(SimTime::from_us(110)),
            host_ser: ser,
            hops,
            latency: arr,
            dst: NodeId(7),
            events_per_pkt,
        }
    }

    fn fold_of(p: &FluidPlan, e: SimTime, inclusive: bool) -> FlowFold {
        p.fold(FlowId(0), e, inclusive)
    }

    #[test]
    fn lattice_counts_are_exact() {
        let t0 = SimTime::from_us(10);
        let t = SimDuration::from_us(1);
        // Strict: t_k < bound.
        assert_eq!(ticks_until(t0, t, SimTime::from_us(10), false), 0);
        assert_eq!(ticks_until(t0, t, SimTime::from_us(11), false), 1);
        assert_eq!(ticks_until(t0, t, SimTime::from_ps(10_500_000), false), 1);
        // Inclusive: t_k ≤ bound.
        assert_eq!(ticks_until(t0, t, SimTime::from_us(10), true), 1);
        assert_eq!(ticks_until(t0, t, SimTime::from_us(11), true), 2);
        assert_eq!(ticks_until(t0, t, SimTime::from_us(9), true), 0);
    }

    #[test]
    fn full_run_folds_to_complete_delivery() {
        let p = plan(2);
        // Horizon far past gen_end + latency: 100 ticks, all delivered.
        let f = fold_of(&p, SimTime::from_ms(1), true);
        assert_eq!(f.gen_pkts, 100);
        assert_eq!(f.del_pkts, 100);
        assert_eq!(f.stuck_pkts, 0);
        assert_eq!(f.elided, 100 * p.events_per_pkt);
    }

    #[test]
    fn boundary_splits_tail_by_residency() {
        let p = plan(2);
        // Horizon exactly at a tick: that tick is generated (inclusive
        // boundary) and sits in the NIC window's first instant... the
        // window [t_k, t_k+s0) with off = 0 means end > e, start ≤ e.
        let e = tick_at(p.t0, p.tick, 50);
        let f = fold_of(&p, e, true);
        assert_eq!(f.gen_pkts, 51);
        // Deliveries: t_k + L ≤ e ⇔ k ≤ 50 − ceil(L/T) ... L = 1.05 µs.
        let exp_del = ticks_until(p.t0, p.tick, e - p.latency, true);
        assert_eq!(f.del_pkts, exp_del);
        assert_eq!(exp_del, 49);
        // Tail: packet 50 in the NIC (off = 0), packet 49 at off = 1 µs
        // is past both switch windows (last ends at 0.95 µs) → wire.
        assert_eq!(f.stuck_pkts, 1);
        assert_eq!(f.switch_pkts, 0);
        // Conservation: generated = delivered + stuck + wire-resident.
        assert_eq!(f.gen_pkts - f.del_pkts - f.stuck_pkts, 1);
    }

    #[test]
    fn strict_boundary_excludes_the_instant() {
        let p = plan(2);
        let e = tick_at(p.t0, p.tick, 50);
        let f = fold_of(&p, e, false);
        // Deadlock-stop at exactly t_50: tick 50 never ran.
        assert_eq!(f.gen_pkts, 50);
        // Packet 49 at off = 1 µs: wire. Packet 48 delivered at
        // 48 µs + 1.05 µs < e. So one in flight, zero stuck.
        assert_eq!(f.del_pkts, 49);
        assert_eq!(f.stuck_pkts, 0);
    }

    #[test]
    fn switch_residency_counts_buffered() {
        let p = plan(2);
        // Boundary inside hop 1's window for packet 50:
        // arr_1 = 350 ns, ser 250 ns → pick off = 400 ns.
        let e = tick_at(p.t0, p.tick, 50) + SimDuration::from_ps(400_000);
        let f = fold_of(&p, e, true);
        let in_switch = f.switch_pkts;
        assert_eq!(in_switch, 1, "packet 50 mid-serialization at hop 1");
        assert_eq!(f.stuck_pkts, 1);
    }

    #[test]
    fn cap_and_gen_end_bound_generation() {
        let mut p = plan(1);
        p.cap = Some(30);
        let f = fold_of(&p, SimTime::from_ms(1), true);
        assert_eq!(f.gen_pkts, 30);
        assert_eq!(f.del_pkts, 30);
        p.cap = None;
        p.gen_end = Some(tick_at(p.t0, p.tick, 20));
        let f = fold_of(&p, SimTime::from_ms(1), true);
        // Stop at exactly t_20 beats the tick by sequence: 20 packets.
        assert_eq!(f.gen_pkts, 20);
    }

    /// `line(2)` carrying one bounded CBR flow the classifier admits
    /// whole: hybrid on, occupancy sampling (itself a gate) off, then
    /// whatever `arm` changes.
    fn lone_cbr_sim(b: &Built, arm: impl FnOnce(&mut SimConfig)) -> NetSim {
        let mut cfg = SimConfig::default();
        cfg.sample_interval = None;
        cfg.hybrid = Some(HybridConfig::default());
        arm(&mut cfg);
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        sim.add_flow(
            // 8 Gbps at the default 1000 B packet gives a 1 µs tick.
            FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8))
                .stopping_at(SimTime::from_us(800)),
        );
        sim
    }

    /// `hybrid_gate_reason` decides whether a run may classify flows
    /// fluid (`NetSim::fast_forward_step` decides whether it may
    /// fast-forward). On a run that is otherwise all fluid, each gated
    /// feature alone yields exactly its reason and elides nothing.
    #[test]
    fn gate_table_gives_each_feature_its_reason() {
        let b = line(2, LinkSpec::default());
        let check =
            |want: Option<&str>, arm: &dyn Fn(&mut SimConfig), setup: &dyn Fn(&mut NetSim)| {
                let mut sim = lone_cbr_sim(&b, arm);
                setup(&mut sim);
                // The gate is read at start, once the fault plan is expanded.
                let paused = sim.advance_until(SimTime::from_us(1), SimTime::from_ms(1));
                assert!(paused.is_none(), "{want:?}: run pauses mid-flight");
                assert_eq!(sim.hybrid_gate_reason(), want);
                let elided = sim.resume_run().events_elided;
                assert_eq!(elided == 0, want.is_some(), "{want:?}: {elided} elided");
            };
        let (s0, s1, h1) = (b.switches[0], b.switches[1], b.hosts[1]);
        let via_s1 = vec![b.topo.port_towards(s0, s1).expect("adjacent").port];
        let at = SimTime::from_us(400);
        let lag = SimDuration::from_us(10);
        let ttl_classes = TtlClassConfig {
            width: 4,
            base_class: 0,
            classes: 5,
        };
        let no_arm = |_: &mut SimConfig| {};
        let no_setup = |_: &mut NetSim| {};
        check(None, &no_arm, &no_setup);
        check(
            Some("telemetry"),
            &|c| c.telemetry = TelemetryConfig::on(),
            &no_setup,
        );
        check(
            Some("occupancy sampling"),
            &|c| c.sample_interval = Some(lag),
            &no_setup,
        );
        check(
            Some("ECN marking"),
            &|c| c.ecn = Some(EcnConfig::default()),
            &no_setup,
        );
        check(Some("packet-lifecycle tracing"), &no_arm, &|s| {
            s.trace_flows([FlowId(0)])
        });
        check(Some("scheduled route updates"), &no_arm, &|s| {
            s.schedule_route_update(at, s0, h1, via_s1.clone())
        });
        check(
            Some("flood-on-miss forwarding"),
            &|c| c.flood_on_miss = true,
            &no_setup,
        );
        let remap = Some("hop/TTL class remapping");
        check(remap, &|c| c.hop_class_mode = Some(2), &no_setup);
        check(remap, &|c| c.ttl_class_mode = Some(ttl_classes), &no_setup);
        for plan in [
            FaultPlan::new().route_reconverge(at, lag, lag),
            FaultPlan::new().route_set(at, s0, h1, via_s1.clone()),
            FaultPlan::new().switch_reboot(at, s1, lag),
        ] {
            check(Some("route/reboot fault scripts"), &no_arm, &|s| {
                s.set_fault_plan(plan.clone()).expect("valid plan")
            });
        }
    }
}

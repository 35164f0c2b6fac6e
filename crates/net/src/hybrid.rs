//! Hybrid fluid/packet co-simulation: elide the event chains of provably
//! uncontended steady-state flows and fold their effect in closed form.
//!
//! The paper's deadlock-formation argument is decided by packet-level
//! dynamics only near a PFC threshold or inside a cyclic buffer
//! dependency; everywhere else a steady-state flow advances as a fluid
//! rate without changing the verdict. This module makes that observation
//! executable: at `start()` every flow is classified **FLUID** or
//! **PACKET**. A fluid flow's per-packet events (`FlowTick`,
//! `HostTxDone`, per-hop `Arrive`/`TxDone`) are never scheduled; its
//! deliveries, residency, and meters are reconstructed exactly at
//! `finalize()` from the closed-form lattice `t_k = t0 + k·T`. A flow
//! *demotes* back to packet level when any port on its path crosses a
//! configurable occupancy fraction of XOFF, when a path switch enters
//! the deadlock tracker's pause watch set, or — statically — when a
//! fault script touches its path; it *promotes* back after a hysteresis
//! window once its path is empty again.
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
//! * **No queueing.** Every hop serializes faster than the injection
//!   interval (`s_i ≤ margin·T`), so at most one packet of the flow
//!   occupies any switch at a time and per-hop latency is constant.
//! * **Switch exclusivity.** No other flow's packets can ever touch a
//!   path switch: every other flow's reachable-switch *footprint*
//!   (computed by the same deterministic bounded walk, so even wildly
//!   looping flows get exact footprints) is disjoint from the path.
//!   Shared-buffer coupling (`dynamic_alpha`) is refused on path
//!   switches, so no global state links a path switch to the rest of
//!   the fabric.
//! * **No PFC.** Peak occupancy (one packet, with 2× headroom demanded)
//!   stays below the demote fraction of XOFF, so path switches never
//!   pause, never enter the deadlock tracker, and never interact with
//!   pause-loss/delay fault processes (those draw fault RNG only when a
//!   PFC frame is actually transmitted).
//! * **Admission by the fluid model.** Admitted flows are handed to
//!   [`RateSolver`] (the incremental max-min model behind E12) with
//!   their path channels; any flow the water-filling cannot satisfy at
//!   full demand is removed (exercising the incremental re-solve) and
//!   stays packet.
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
//! Gated configurations (telemetry, sampling, tracing, ECN, class
//! remapping, route/reboot fault scripts) fall back to full-packet with
//! a one-time warning through the keyed registry (`crate::warn`), so a
//! long-lived serve session toggling backends never re-emits duplicates.

use serde::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::route_walk;

use crate::faults::FaultKind;
use crate::flow::Demand;
use crate::sim::{Ev, NetSim};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Knobs for the hybrid fluid/packet backend (`SimConfig::hybrid`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Master switch; `false` behaves exactly like `SimConfig::hybrid =
    /// None`.
    pub enabled: bool,
    /// A fluid path demotes when any of its ingress ports reaches this
    /// fraction of its XOFF threshold; classification also requires two
    /// packets of headroom below `demote_fraction · XOFF`, so a healthy
    /// fluid flow can never trip its own demotion. In `(0, 1]`.
    pub demote_fraction: f64,
    /// Every hop of a fluid path must serialize a packet within this
    /// fraction of the injection interval (`s_i ≤ margin·T`), the
    /// no-queueing condition. In `(0, 1]`.
    pub capacity_margin: f64,
    /// Hysteresis: a demoted flow becomes eligible for promotion back
    /// to fluid this long after the demotion.
    pub promote_after: SimDuration,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            enabled: true,
            demote_fraction: 0.5,
            capacity_margin: 0.9,
            promote_after: SimDuration::from_us(100),
        }
    }
}

impl HybridConfig {
    /// Validate ranges (fractions in `(0, 1]`, positive hysteresis).
    pub fn validate(&self) -> Result<(), Error> {
        if !(self.demote_fraction > 0.0 && self.demote_fraction <= 1.0) {
            return Err(Error::Config(format!(
                "hybrid.demote_fraction must be in (0, 1], got {}",
                self.demote_fraction
            )));
        }
        if !(self.capacity_margin > 0.0 && self.capacity_margin <= 1.0) {
            return Err(Error::Config(format!(
                "hybrid.capacity_margin must be in (0, 1], got {}",
                self.capacity_margin
            )));
        }
        if self.promote_after.is_zero() {
            return Err("hybrid.promote_after must be positive".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Incremental max–min rate solver (re-exported as `pfcsim_core::fluid::RateSolver`)
// ---------------------------------------------------------------------

/// A directed channel key for [`RateSolver`] capacities: `(from, to)`.
pub type ChannelKey = (NodeId, NodeId);

/// Incremental steady-state max–min rate solver over a set of fluid
/// flows — the arbiter the hybrid packet/fluid backend consults when a
/// region changes (a flow is admitted to or demoted from fluid mode).
///
/// Unlike `pfcsim_core::fluid::FluidNetwork::run`, which integrates queue levels through
/// time, the solver computes only the stable-state allocation: classic
/// progressive filling, freezing each bottleneck channel's flows at
/// their fair share. Mutations (`add_flow`, `remove_flow`) mark the
/// solution dirty; `rates()` re-solves lazily over the surviving active
/// set, so a region transition costs one solve rather than one solve
/// per call site.
#[derive(Debug, Clone, Default)]
pub struct RateSolver {
    caps: BTreeMap<ChannelKey, f64>,
    /// Per flow: offered rate in bytes/s (`None` = infinite demand) and
    /// the directed channels the flow crosses.
    flows: BTreeMap<FlowId, (Option<f64>, Vec<ChannelKey>)>,
    rates: BTreeMap<FlowId, f64>,
    dirty: bool,
}

impl RateSolver {
    /// Empty solver.
    pub fn new() -> Self {
        RateSolver::default()
    }

    /// Declare a channel's capacity in bytes/s. Declaring a channel twice
    /// overwrites the old capacity and invalidates the solution.
    pub fn set_capacity(&mut self, chan: ChannelKey, bytes_per_sec: f64) {
        assert!(bytes_per_sec >= 0.0, "capacity must be non-negative");
        self.caps.insert(chan, bytes_per_sec);
        self.dirty = true;
    }

    /// Add (or replace) a flow. `demand` is the offered rate in bytes/s
    /// (`None` = infinite demand); `path` is the node path, host →
    /// switches… → host, from which the directed channel list is derived.
    pub fn add_flow(&mut self, id: FlowId, demand: Option<f64>, path: &[NodeId]) {
        assert!(path.len() >= 2, "flow path too short");
        let chans: Vec<ChannelKey> = path.windows(2).map(|w| (w[0], w[1])).collect();
        for c in &chans {
            assert!(self.caps.contains_key(c), "no capacity declared for {c:?}");
        }
        self.flows.insert(id, (demand, chans));
        self.dirty = true;
    }

    /// Remove a flow (e.g. demoted back to packet mode). Returns whether
    /// it was present. The remaining flows' rates are re-solved on the
    /// next `rates()` call — removal can only raise survivors' rates.
    pub fn remove_flow(&mut self, id: FlowId) -> bool {
        let was = self.flows.remove(&id).is_some();
        self.dirty |= was;
        was
    }

    /// Number of flows currently in the solver.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The max–min allocation in bytes/s per flow, re-solving if any
    /// mutation occurred since the last call.
    pub fn rates(&mut self) -> &BTreeMap<FlowId, f64> {
        if self.dirty {
            self.solve();
            self.dirty = false;
        }
        &self.rates
    }

    /// The solved rate of one flow, in bytes/s.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.rates().get(&id).copied()
    }

    /// Whether every finite-demand flow is fully satisfied (solved rate
    /// within `eps` of its demand) — the hybrid backend's admission
    /// criterion: a fluid region is only exact while nothing bottlenecks.
    pub fn all_satisfied(&mut self, eps: f64) -> bool {
        self.rates();
        self.flows.iter().all(|(id, (demand, _))| match demand {
            Some(d) => self.rates[id] + eps >= *d,
            None => true,
        })
    }

    /// Progressive filling: repeatedly find the tightest channel (least
    /// fair share among its unfrozen flows), freeze those flows there;
    /// flows whose demand is below every channel's share freeze at their
    /// demand. Terminates in ≤ `flows + channels` rounds.
    fn solve(&mut self) {
        self.rates.clear();
        // Residual capacity and unfrozen-flow membership per channel.
        let mut residual = self.caps.clone();
        let mut members: BTreeMap<ChannelKey, BTreeSet<FlowId>> = BTreeMap::new();
        let mut unfrozen: BTreeSet<FlowId> = BTreeSet::new();
        for (&id, (demand, chans)) in &self.flows {
            if *demand == Some(0.0) {
                // Zero-rate flows are satisfied at zero and consume nothing.
                self.rates.insert(id, 0.0);
                continue;
            }
            unfrozen.insert(id);
            for &c in chans {
                members.entry(c).or_default().insert(id);
            }
        }
        while !unfrozen.is_empty() {
            // Fair share currently offered to each unfrozen flow: the min
            // over its channels of residual / |unfrozen members|.
            let share_of = |id: FlowId, members: &BTreeMap<ChannelKey, BTreeSet<FlowId>>| -> f64 {
                self.flows[&id]
                    .1
                    .iter()
                    .map(|c| residual[c] / members[c].len() as f64)
                    .fold(f64::INFINITY, f64::min)
            };
            // Freeze demand-limited flows first: they leave slack behind.
            let demand_limited: Vec<FlowId> = unfrozen
                .iter()
                .copied()
                .filter(|&id| match self.flows[&id].0 {
                    Some(d) => d <= share_of(id, &members) + 1e-9,
                    None => false,
                })
                .collect();
            let freeze: Vec<(FlowId, f64)> = if demand_limited.is_empty() {
                // Bottleneck round: freeze the flows of the tightest
                // channel at its fair share.
                let (&chan, flows) = members
                    .iter()
                    .filter(|(_, fs)| !fs.is_empty())
                    .min_by(|(a, fa), (b, fb)| {
                        let sa = residual[*a] / fa.len() as f64;
                        let sb = residual[*b] / fb.len() as f64;
                        sa.partial_cmp(&sb).unwrap().then(a.cmp(b))
                    })
                    .expect("unfrozen flows imply a non-empty channel");
                let share = residual[&chan] / flows.len() as f64;
                flows.iter().map(|&id| (id, share)).collect()
            } else {
                demand_limited
                    .into_iter()
                    .map(|id| (id, self.flows[&id].0.expect("demand-limited")))
                    .collect()
            };
            for (id, rate) in freeze {
                self.rates.insert(id, rate);
                unfrozen.remove(&id);
                for c in &self.flows[&id].1 {
                    *residual.get_mut(c).expect("declared") = (residual[c] - rate).max(0.0);
                    members.get_mut(c).expect("member").remove(&id);
                }
            }
        }
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

/// Runtime phase of a fluid flow.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum FluidRt {
    /// Eliding: ticks from `from_k` onward are virtual.
    Open {
        /// First lattice index covered by the open segment.
        from_k: u64,
    },
    /// Demoted to packet level; may promote at `eligible_at`.
    Demoted {
        /// End of the hysteresis window.
        eligible_at: SimTime,
    },
}

/// Per-flow region tag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum FlowMode {
    /// Full datapath.
    Packet,
    /// Analytic lattice (possibly currently demoted).
    Fluid {
        /// The frozen lattice description.
        plan: FluidPlan,
        /// Current phase.
        rt: FluidRt,
        /// Closed elided segments `[from_k, end_k)`, folded at finalize.
        segments: Vec<(u64, u64)>,
    },
}

/// Live hybrid-backend state (`NetSim::hybrid`); also the checkpoint
/// snapshot — everything here is plain data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HybridState {
    /// Effective knobs for this run.
    pub(crate) cfg: HybridConfig,
    /// Region tag per dense flow index.
    pub(crate) modes: Vec<FlowMode>,
    /// `watched[node]`: the node is on some fluid path (demotion triggers
    /// consult this before doing any work).
    pub(crate) watched: Vec<bool>,
    /// Fluid→packet transitions taken.
    pub(crate) demotions: u64,
    /// Packet→fluid transitions taken.
    pub(crate) promotions: u64,
}

/// Aggregate results of the finalize fold.
#[derive(Debug, Default, Clone)]
pub(crate) struct HybridTotals {
    /// Analytic bytes resident in switch buffers at the boundary.
    pub(crate) buffered: Bytes,
    /// Events the backend did not execute.
    pub(crate) events_elided: u64,
    /// Flows that ran fluid for any part of the run.
    pub(crate) fluid_flows: u64,
    /// Region transitions.
    pub(crate) demotions: u64,
    /// Region transitions.
    pub(crate) promotions: u64,
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

    /// Generated packets in segment `[lo, hi)` as of `now` during the
    /// run (no run-boundary cut; used for runtime continuity at demote).
    fn gen_in(&self, lo: u64, hi: u64) -> u64 {
        hi.min(self.gen_cap()).saturating_sub(lo)
    }

    /// Fold one segment against the run boundary `e` (`inclusive`
    /// selects horizon semantics, strict selects deadlock-stop).
    fn fold_segment(&self, lo: u64, hi: u64, e: SimTime, inclusive: bool, out: &mut FlowFold) {
        let gen_hi = hi
            .min(self.gen_cap())
            .min(ticks_until(self.t0, self.tick, e, inclusive));
        if gen_hi <= lo {
            return;
        }
        let n_gen = gen_hi - lo;
        // Delivered iff t_k + L <(≤) e  ⇔  t_k <(≤) e − L.
        let del_hi = if e.as_ps() >= self.latency.as_ps() {
            gen_hi.min(ticks_until(self.t0, self.tick, e - self.latency, inclusive))
        } else {
            lo
        };
        let n_del = del_hi.saturating_sub(lo);
        out.gen_pkts += n_gen;
        out.del_pkts += n_del;
        out.elided += n_del * self.events_per_pkt + (n_gen - n_del);
        if n_del > 0 {
            let first = tick_at(self.t0, self.tick, lo) + self.latency;
            let last = tick_at(self.t0, self.tick, lo + n_del - 1) + self.latency;
            if out.del_pkts == n_del {
                out.first_del = first;
            }
            out.last_del = last;
        }
        // The in-flight tail: place each undelivered generated packet by
        // its residency window at the boundary, mirroring the
        // full-packet stuck-walk (NIC slot or mid-serialization at a
        // switch counts; a frame on the wire is invisible to both).
        for k in del_hi.max(lo)..gen_hi {
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
            for hop in &self.hops {
                if in_window(hop.arr.as_ps(), hop.ser.as_ps()) {
                    out.stuck_pkts += 1;
                    out.switch_pkts += 1;
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Classification, elision hooks, and the finalize fold
// ---------------------------------------------------------------------

/// A candidate's walked path (switch hops plus the timing facts the
/// plan needs), produced by the eligibility walk.
struct PathFacts {
    plan: FluidPlan,
    /// Directed node chain `src, sw…, dst` for the rate solver.
    chain: Vec<NodeId>,
    /// Per-channel capacity in bytes/second, parallel to `chain` edges.
    caps: Vec<f64>,
    /// Demand in bytes/second.
    demand: f64,
}

impl NetSim {
    /// The hybrid config in effect: `SimConfig::hybrid` when set and
    /// enabled, otherwise off.
    fn hybrid_effective_cfg(&self) -> Option<HybridConfig> {
        self.dp.cfg.hybrid.clone().filter(|h| h.enabled)
    }

    /// A whole-run reason the hybrid backend must stay off, if any.
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
    /// fault gate). Exclusivity and solver admission happen later.
    fn hybrid_flow_facts(&self, dense: usize, hcfg: &HybridConfig) -> Option<PathFacts> {
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
            |s: SimDuration| (s.as_ps() as f64) <= hcfg.capacity_margin * (tick.as_ps() as f64);
        let p0 = self.dp.pinfo(spec.src, PortNo(0));
        let host_ser = p0.rate.serialization_time(size);
        if !margin_ok(host_ser) {
            return None;
        }
        let mut links = vec![p0.link.0];
        let mut chain = vec![spec.src];
        let mut caps = vec![p0.rate.bps() as f64 / 8.0];
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
            if (headroom as f64) > hcfg.demote_fraction * xoff.get() as f64
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
            chain.push(node);
            caps.push(info.rate.bps() as f64 / 8.0);
            links.push(info.link.0);
            delays.push(info.delay);
            arr = arr + ser + info.delay;
            (at, in_port) = (out.peer, out.peer_port);
        }
        if at != spec.dst || hops.is_empty() {
            return None;
        }
        chain.push(spec.dst);
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
        Some(PathFacts {
            plan: FluidPlan {
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
            },
            chain,
            caps,
            demand: rate.bps() as f64 / 8.0,
        })
    }

    /// Classify every flow at the end of `start()`. Installs
    /// `NetSim::hybrid` only when at least one flow is admitted, so a
    /// gated or fruitless run carries zero per-event overhead.
    pub(crate) fn hybrid_classify(&mut self) {
        debug_assert!(self.hybrid.is_none(), "classification runs once");
        let Some(hcfg) = self.hybrid_effective_cfg() else {
            return;
        };
        if let Some(reason) = self.hybrid_gate_reason() {
            crate::warn::warn_once(&format!("gate:{reason}"), || {
                format!(
                    "pfcsim: hybrid fluid/packet backend unavailable for this run \
                     ({reason}); running full-packet"
                )
            });
            return;
        }
        // Per-flow facts, then switch exclusivity over *all* flows.
        let n = self.dp.flows.spec.len();
        let mut facts: Vec<Option<PathFacts>> =
            (0..n).map(|i| self.hybrid_flow_facts(i, &hcfg)).collect();
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
        for (i, f) in facts.iter_mut().enumerate() {
            let keep = match f {
                Some(pf) => {
                    src_flows[self.dp.flows.spec[i].src.0 as usize] == 1
                        && pf.plan.hops.iter().all(|h| touches[h.node.0 as usize] == 1)
                }
                None => false,
            };
            if !keep {
                *f = None;
            }
        }
        // Admission by the max-min fluid model: water-fill the admitted
        // paths; while any flow falls short of its demand, evict the
        // worst-served one and re-solve incrementally. (Exclusivity
        // makes shortfalls impossible today; the loop is the honest
        // arbiter for any future relaxation.)
        let mut solver = RateSolver::new();
        for (i, f) in facts.iter().enumerate() {
            let Some(pf) = f else { continue };
            for (w, cap) in pf.chain.windows(2).zip(&pf.caps) {
                solver.set_capacity((w[0], w[1]), *cap);
            }
            solver.add_flow(self.dp.flows.spec[i].id, Some(pf.demand), &pf.chain);
        }
        while !solver.is_empty() && !solver.all_satisfied(1e-6) {
            let worst = solver
                .rates()
                .iter()
                .map(|(&id, &r)| (id, r))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(id, _)| id);
            let Some(id) = worst else { break };
            solver.remove_flow(id);
            let dense = self.dp.fidx(id);
            facts[dense] = None;
        }
        let fluid = facts.iter().filter(|f| f.is_some()).count();
        if fluid == 0 {
            return;
        }
        let mut watched = vec![false; self.dp.topo.node_count()];
        let modes: Vec<FlowMode> = facts
            .into_iter()
            .map(|f| match f {
                Some(pf) => {
                    for h in &pf.plan.hops {
                        watched[h.node.0 as usize] = true;
                    }
                    FlowMode::Fluid {
                        plan: pf.plan,
                        rt: FluidRt::Open { from_k: 0 },
                        segments: Vec::new(),
                    }
                }
                None => FlowMode::Packet,
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
                let FlowMode::Fluid { plan, .. } = m else {
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
        self.hybrid = Some(Box::new(HybridState {
            cfg: hcfg,
            modes,
            watched,
            demotions: 0,
            promotions: 0,
        }));
        for (flow, at) in sentinels {
            self.sched(at, Ev::FlowTick { flow });
        }
    }

    /// `FlowStart` intercept: a fluid flow skips its tick chain
    /// entirely. Returns true when the tick must not be scheduled.
    pub(crate) fn hybrid_elides_ticks(&self, f: FlowId) -> bool {
        let Some(h) = self.hybrid.as_deref() else {
            return false;
        };
        matches!(
            h.modes.get(self.dp.fidx(f)),
            Some(FlowMode::Fluid {
                rt: FluidRt::Open { .. },
                ..
            })
        )
    }

    /// `FlowTick` intercept: swallow stray ticks of an open fluid flow
    /// and promote a demoted one whose hysteresis has expired and whose
    /// path has drained. Returns true when the tick (generation *and*
    /// rescheduling) must be skipped.
    pub(crate) fn hybrid_on_flow_tick(&mut self, f: FlowId) -> bool {
        if self.hybrid.is_none() {
            return false;
        }
        let now = self.now();
        let i = self.dp.fidx(f);
        let promote = {
            let h = self.hybrid.as_deref().expect("checked");
            match h.modes.get(i) {
                Some(FlowMode::Fluid {
                    rt: FluidRt::Open { .. },
                    ..
                }) => return true,
                Some(FlowMode::Fluid {
                    plan,
                    rt: FluidRt::Demoted { eligible_at },
                    ..
                }) => {
                    now >= *eligible_at
                        && self.dp.host_in_flight[self.dp.flows.spec[i].src.0 as usize].is_none()
                        && plan.hops.iter().all(|hp| {
                            self.dp.switches[hp.node.0 as usize]
                                .as_ref()
                                .is_some_and(|sw| sw.buffered.is_zero())
                        })
                }
                _ => return false,
            }
        };
        if !promote {
            return false;
        }
        // Reopen on the lattice. Post-demote chain ticks are
        // lattice-exact (`now = t_k`), so the current tick becomes the
        // first virtual one; an off-lattice stray (the quiescence
        // sentinel) reopens at the next lattice point, and the chain's
        // pending real tick there is swallowed as a virtual one.
        let h = self.hybrid.as_deref_mut().expect("checked");
        let FlowMode::Fluid { plan, rt, .. } = &mut h.modes[i] else {
            unreachable!()
        };
        let from_k = ticks_until(plan.t0, plan.tick, now, false);
        *rt = FluidRt::Open { from_k };
        h.promotions += 1;
        true
    }

    /// Demotion trigger: `node`'s ingress crossed the occupancy
    /// threshold or entered the pause watch set. Closes the open
    /// segment of every fluid flow whose path includes `node` and
    /// resumes its real tick chain on the lattice. Statically
    /// unreachable under switch exclusivity, kept as a defensive
    /// boundary for future classification relaxations.
    pub(crate) fn hybrid_demote_node(&mut self, node: NodeId) {
        let now = self.now();
        let Some(h) = self.hybrid.as_deref_mut() else {
            return;
        };
        if !h.watched.get(node.0 as usize).copied().unwrap_or(false) {
            return;
        }
        let promote_after = h.cfg.promote_after;
        let mut resume: Vec<(usize, u64, u64)> = Vec::new();
        for (i, mode) in h.modes.iter_mut().enumerate() {
            let FlowMode::Fluid { plan, rt, segments } = mode else {
                continue;
            };
            let FluidRt::Open { from_k } = *rt else {
                continue;
            };
            if !plan.hops.iter().any(|hp| hp.node == node) {
                continue;
            }
            // All ticks strictly before `now` are virtual; the first
            // real tick lands on the next lattice point (possibly now).
            let k_next = ticks_until(plan.t0, plan.tick, now, false).max(from_k);
            segments.push((from_k, k_next));
            let gen = plan.gen_in(from_k, k_next);
            *rt = FluidRt::Demoted {
                eligible_at: now + promote_after,
            };
            h.demotions += 1;
            resume.push((i, gen, k_next));
        }
        for (i, gen, k_next) in resume {
            // Runtime continuity: elided packets advance the sequence
            // and the finite-CBR byte ledger exactly as if injected.
            let at = {
                let FlowMode::Fluid { plan, .. } =
                    &self.hybrid.as_deref().expect("hybrid live").modes[i]
                else {
                    unreachable!()
                };
                self.dp.flows.rt[i].next_seq += gen;
                self.dp.flows.rt[i].injected += Bytes::new(gen * plan.size.get());
                tick_at(plan.t0, plan.tick, k_next)
            };
            let flow = self.dp.flows.spec[i].id;
            self.sched(at, Ev::FlowTick { flow });
        }
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
        let mut totals = HybridTotals {
            demotions: h.demotions,
            promotions: h.promotions,
            ..HybridTotals::default()
        };
        for (i, mode) in h.modes.iter().enumerate() {
            let FlowMode::Fluid { plan, rt, segments } = mode else {
                continue;
            };
            totals.fluid_flows += 1;
            let mut fold = FlowFold {
                flow: self.dp.flows.spec[i].id,
                dst: plan.dst,
                size: plan.size,
                gen_pkts: 0,
                del_pkts: 0,
                stuck_pkts: 0,
                switch_pkts: 0,
                first_del: SimTime::ZERO,
                last_del: SimTime::ZERO,
                elided: 0,
            };
            for &(lo, hi) in segments {
                plan.fold_segment(lo, hi, e, inclusive, &mut fold);
            }
            if let FluidRt::Open { from_k } = rt {
                plan.fold_segment(*from_k, u64::MAX, e, inclusive, &mut fold);
            }
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
        let mut f = FlowFold {
            flow: FlowId(0),
            dst: p.dst,
            size: p.size,
            gen_pkts: 0,
            del_pkts: 0,
            stuck_pkts: 0,
            switch_pkts: 0,
            first_del: SimTime::ZERO,
            last_del: SimTime::ZERO,
            elided: 0,
        };
        p.fold_segment(0, u64::MAX, e, inclusive, &mut f);
        f
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

    #[test]
    fn segment_union_equals_whole_lattice() {
        // Splitting the lattice into closed segments + an open tail
        // folds to the same totals as one open segment (demotion with
        // no intervening packet traffic must be lossless).
        let p = plan(3);
        let e = tick_at(p.t0, p.tick, 73) + SimDuration::from_ps(123_456);
        let whole = fold_of(&p, e, true);
        let mut split = fold_of(&p, e, true);
        split.gen_pkts = 0;
        split.del_pkts = 0;
        split.stuck_pkts = 0;
        split.switch_pkts = 0;
        split.elided = 0;
        for (lo, hi) in [(0, 10), (10, 40), (40, u64::MAX)] {
            p.fold_segment(lo, hi, e, true, &mut split);
        }
        assert_eq!(split.gen_pkts, whole.gen_pkts);
        assert_eq!(split.del_pkts, whole.del_pkts);
        assert_eq!(split.stuck_pkts, whole.stuck_pkts);
        assert_eq!(split.switch_pkts, whole.switch_pkts);
        assert_eq!(split.elided, whole.elided);
    }

    #[test]
    fn env_parser_accepts_known_values() {
        // Can't set env safely in parallel tests; exercise validate +
        // default shape instead.
        let d = HybridConfig::default();
        assert!(d.validate().is_ok());
        assert!(d.enabled);
        let bad = HybridConfig {
            demote_fraction: 0.0,
            ..d.clone()
        };
        assert!(bad.validate().is_err());
        let bad = HybridConfig {
            capacity_margin: 1.5,
            ..d.clone()
        };
        assert!(bad.validate().is_err());
        let bad = HybridConfig {
            promote_after: SimDuration::ZERO,
            ..d
        };
        assert!(bad.validate().is_err());
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
            // 8 Gbps at the default 1000 B packet gives a 1 µs tick,
            // so the per-switch residency windows ([1.2,1.4] and
            // [2.4,2.6] µs after injection) never contain a tick
            // instant and the drained-path promotion check can pass.
            FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8))
                .stopping_at(SimTime::from_us(800)),
        );
        sim
    }

    /// `hybrid_gate_reason` is the one list that decides which engine a
    /// run may use. On a run that is otherwise all fluid, each gated
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

    /// Demotion is statically unreachable under switch exclusivity, so
    /// force it mid-run: the flow must close its open segment, resume a
    /// real lattice-exact tick chain, promote back once the hysteresis
    /// expires and the path drains, and still reproduce the full-packet
    /// reference observables exactly.
    #[test]
    fn forced_demotion_round_trips_through_packets() {
        let b = line(2, LinkSpec::default());
        let mk = |on: bool| {
            lone_cbr_sim(&b, |cfg| {
                cfg.hybrid = Some(HybridConfig {
                    enabled: on,
                    ..HybridConfig::default()
                })
            })
        };
        let full = mk(false).run(SimTime::from_ms(1));
        let mut sim = mk(true);
        assert!(
            sim.advance_until(SimTime::from_us(300), SimTime::from_ms(1))
                .is_none(),
            "run pauses mid-flight"
        );
        for &sw in &b.switches {
            sim.hybrid_demote_node(sw);
        }
        let hyb = sim.resume_run();
        assert!(hyb.hybrid_demotions >= 1, "forced demotion taken");
        assert!(hyb.hybrid_promotions >= 1, "hysteresis promotion taken");
        assert!(hyb.events_elided > 0, "elision resumed after promotion");
        assert_eq!(format!("{:?}", hyb.verdict), format!("{:?}", full.verdict));
        let flows =
            |r: &crate::sim::RunReport| serde_json::to_string(&r.stats.flows).expect("serialize");
        assert_eq!(flows(&hyb), flows(&full), "conservation totals diverge");
        assert_eq!(hyb.stats.pause_frames, full.stats.pause_frames);
    }
}

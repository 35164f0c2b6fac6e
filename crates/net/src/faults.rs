//! Fault injection: scheduled link failures and flaps, lossy or delayed
//! PFC signalling, switch reboots, and route reconvergence with transient
//! loops.
//!
//! Real deadlocks rarely start from a pristine network: the paper's Case 1
//! needs a *transient routing loop* (a failure plus the window in which
//! switches disagree about the new shortest paths), and operators report
//! lossy PFC channels and port flaps as the usual suspects. A
//! [`FaultPlan`] scripts those events against simulated time:
//!
//! * [`FaultKind::LinkDown`] / [`FaultKind::LinkUp`] — the link stops
//!   carrying frames in both directions. Packets queued toward the dead
//!   port and frames mid-flight are destroyed (counted as
//!   `drops_link_down`), PFC state on both endpoints is reset (a dead link
//!   cannot assert PAUSE), and traffic routed at the dead port black-holes
//!   until routes change — exactly how a real L3 fabric behaves between a
//!   failure and reconvergence.
//! * [`FaultKind::LinkFlap`] — a down/up cycle repeated at a period, the
//!   classic flapping-transceiver pathology.
//! * [`FaultKind::PauseLoss`] / [`FaultKind::PauseDelay`] — PFC frames
//!   transmitted by one switch are dropped with a probability, or arrive
//!   late. A lost XOFF lets the upstream overrun the headroom (counted as
//!   `drops_pause_loss`); a lost XON in XON/XOFF mode wedges the upstream
//!   permanently — a deadlock with *no* cyclic dependency, which the run
//!   report's fault timeline makes attributable.
//! * [`FaultKind::SwitchReboot`] — every attached link drops, all buffered
//!   packets are cleared, and the forwarding table is wiped, then restored
//!   after the downtime.
//! * [`FaultKind::RouteReconverge`] — each switch independently recomputes
//!   ECMP shortest paths over the *currently-up* links after its own lag
//!   (base + per-switch jitter). While switches disagree, transient loops
//!   exist: the paper's Case-1 precondition, with the loop-existence
//!   window directly controlled by the lag spread.
//! * [`FaultKind::RouteSet`] — a surgical forwarding-table write at a
//!   point in time (install a loop at t₁, repair it at t₂).
//!
//! Every applied fault is recorded in `NetStats::faults` as a typed
//! [`FaultRecord`] timeline, so deadlock-formation times can be correlated
//! with the faults that caused them.

use core::fmt;

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{NodeId, PortNo, Priority};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Take the `a`–`b` link down (both directions).
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Bring the `a`–`b` link back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Repeated down/up cycles: down at the event time, up `down_for`
    /// later, repeating every `period` for `cycles` rounds.
    LinkFlap {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Outage length per cycle.
        down_for: SimDuration,
        /// Cycle period (must exceed `down_for`).
        period: SimDuration,
        /// Number of down/up cycles.
        cycles: u32,
    },
    /// PFC frames *transmitted by* `node` are lost with this probability
    /// (deterministically, from the simulation's fault RNG stream). A
    /// probability of 0 disarms a previously-armed loss process.
    PauseLoss {
        /// The switch whose outgoing PAUSE/RESUME frames are unreliable.
        node: NodeId,
        /// Per-frame loss probability in `[0, 1]`.
        probability: f64,
    },
    /// PFC frames transmitted by `node` arrive `extra` late (slow pause
    /// processing). Zero disarms.
    PauseDelay {
        /// The switch whose outgoing PFC frames are delayed.
        node: NodeId,
        /// Extra one-way latency added to each PFC frame.
        extra: SimDuration,
    },
    /// `node` reboots: all its links drop, all buffered packets are
    /// destroyed, its forwarding table is wiped, and everything is
    /// restored `downtime` later.
    SwitchReboot {
        /// The rebooting switch.
        node: NodeId,
        /// Time until links and routes return.
        downtime: SimDuration,
    },
    /// Every switch independently recomputes ECMP shortest paths over the
    /// links that are up *now*, applying its new table after
    /// `base_lag` plus a per-switch uniform jitter in `[0, jitter]` —
    /// the distributed-reconvergence model whose lag spread is the
    /// paper's Case-1 loop-existence window.
    RouteReconverge {
        /// Minimum per-switch reconvergence lag.
        base_lag: SimDuration,
        /// Upper bound of the additional per-switch uniform jitter.
        jitter: SimDuration,
    },
    /// Overwrite the forwarding entry for `dst` at `node` (an empty port
    /// list black-holes the destination).
    RouteSet {
        /// The switch whose table is written.
        node: NodeId,
        /// Destination host the entry routes.
        dst: NodeId,
        /// New ECMP next-hop ports.
        ports: Vec<PortNo>,
    },
}

/// A fault scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A scripted schedule of faults, installed with `NetSim::set_fault_plan`
/// before the run starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults (any order; sorted at run start).
    pub events: Vec<FaultEvent>,
    /// Ingress headroom above XOFF that survives lost/late pauses. While a
    /// pause fault is armed at a switch, a lossless ingress queue filling
    /// past `xoff + pause_headroom` overflows (counted as
    /// `drops_pause_loss`) — the buffer the PFC guarantee would normally
    /// protect runs out because the pause never arrived in time.
    pub pause_headroom: Bytes,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            pause_headroom: Bytes::from_kb(20),
        }
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule a link failure.
    pub fn link_down(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.push(at, FaultKind::LinkDown { a, b })
    }

    /// Schedule a link repair.
    pub fn link_up(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.push(at, FaultKind::LinkUp { a, b })
    }

    /// Schedule a link flap train.
    pub fn link_flap(
        self,
        at: SimTime,
        a: NodeId,
        b: NodeId,
        down_for: SimDuration,
        period: SimDuration,
        cycles: u32,
    ) -> Self {
        self.push(
            at,
            FaultKind::LinkFlap {
                a,
                b,
                down_for,
                period,
                cycles,
            },
        )
    }

    /// Arm (or, with probability 0, disarm) PFC loss at `node`.
    pub fn pause_loss(self, at: SimTime, node: NodeId, probability: f64) -> Self {
        self.push(at, FaultKind::PauseLoss { node, probability })
    }

    /// Arm (or, with zero `extra`, disarm) PFC delay at `node`.
    pub fn pause_delay(self, at: SimTime, node: NodeId, extra: SimDuration) -> Self {
        self.push(at, FaultKind::PauseDelay { node, extra })
    }

    /// Schedule a switch reboot.
    pub fn switch_reboot(self, at: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.push(at, FaultKind::SwitchReboot { node, downtime })
    }

    /// Schedule a network-wide route reconvergence.
    pub fn route_reconverge(self, at: SimTime, base_lag: SimDuration, jitter: SimDuration) -> Self {
        self.push(at, FaultKind::RouteReconverge { base_lag, jitter })
    }

    /// Schedule a forwarding-table write.
    pub fn route_set(self, at: SimTime, node: NodeId, dst: NodeId, ports: Vec<PortNo>) -> Self {
        self.push(at, FaultKind::RouteSet { node, dst, ports })
    }

    /// Check the plan against a topology: a link fault's endpoints must
    /// be joined by exactly one link, probabilities in range, flap trains
    /// well-formed, fault targets of the right node kind.
    pub fn validate(&self, topo: &Topology) -> Result<(), Error> {
        let is_switch = |n: NodeId, what: &str| -> Result<(), String> {
            if n.0 as usize >= topo.node_count() {
                return Err(format!("{what}: {n} is not a node"));
            }
            if topo.node(n).kind != NodeKind::Switch {
                return Err(format!("{what}: {n} is not a switch"));
            }
            Ok(())
        };
        for e in &self.events {
            match &e.kind {
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    one_link(topo, *a, *b)?
                }
                FaultKind::LinkFlap {
                    a,
                    b,
                    down_for,
                    period,
                    cycles,
                } => {
                    one_link(topo, *a, *b)?;
                    if down_for.is_zero() || *cycles == 0 {
                        return Err("link flap needs a positive outage and ≥1 cycle".into());
                    }
                    if *cycles > 1 && period <= down_for {
                        return Err("link flap period must exceed the outage".into());
                    }
                }
                FaultKind::PauseLoss { node, probability } => {
                    is_switch(*node, "pause loss")?;
                    if !(0.0..=1.0).contains(probability) {
                        return Err(Error::Config(format!(
                            "pause loss probability {probability} not in [0,1]"
                        )));
                    }
                }
                FaultKind::PauseDelay { node, .. } => is_switch(*node, "pause delay")?,
                FaultKind::SwitchReboot { node, downtime } => {
                    is_switch(*node, "switch reboot")?;
                    if downtime.is_zero() {
                        return Err("switch reboot downtime must be positive".into());
                    }
                }
                FaultKind::RouteReconverge { .. } => {}
                FaultKind::RouteSet { node, dst, ports } => {
                    is_switch(*node, "route set")?;
                    if dst.0 as usize >= topo.node_count() {
                        return Err(Error::Config(format!("route set: {dst} is not a node")));
                    }
                    let n_ports = topo.ports(*node).len();
                    for p in ports {
                        if p.0 as usize >= n_ports {
                            return Err(Error::Config(format!(
                                "route set: {node} has no port {}",
                                p.0
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Check that exactly one link joins `a` and `b`. A link fault names its
/// link by the two nodes it joins, so a pair joined by parallel links is
/// refused rather than faulting whichever of them comes first.
pub(crate) fn one_link(topo: &Topology, a: NodeId, b: NodeId) -> Result<(), Error> {
    let links = if (a.0 as usize) < topo.node_count() {
        topo.ports(a).iter().filter(|p| p.peer == b).count()
    } else {
        0
    };
    match links {
        0 => Err(Error::Config(format!(
            "no link between nodes {} and {}",
            a.0, b.0
        ))),
        1 => Ok(()),
        n => Err(Error::Config(format!(
            "{n} parallel links join nodes {} and {}; a link fault names one link by its two nodes",
            a.0, b.0
        ))),
    }
}

/// What actually happened when a fault was applied — the run report's
/// typed timeline (`NetStats::faults`), correlated by time with pause
/// logs and deadlock-detection instants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// A link went down, destroying this many packets.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Packets destroyed (queued at the dead ports).
        dropped: u64,
    },
    /// A link came back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// A per-frame PFC loss process was armed (probability 0 = disarmed).
    PauseLossArmed {
        /// The lossy switch.
        node: NodeId,
        /// Per-frame loss probability.
        probability: f64,
    },
    /// A PFC delay was armed (zero = disarmed).
    PauseDelayArmed {
        /// The slow switch.
        node: NodeId,
        /// Added latency.
        extra: SimDuration,
    },
    /// One PFC frame was destroyed by an armed loss process.
    PauseFrameLost {
        /// Transmitting switch.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Paused class.
        priority: Priority,
        /// True iff the lost frame was a RESUME (lost resumes wedge the
        /// upstream permanently in XON/XOFF mode).
        resume: bool,
    },
    /// A switch went down, destroying this many packets.
    SwitchRebooted {
        /// The switch.
        node: NodeId,
        /// Packets destroyed (buffered + mid-flight at its ports).
        dropped: u64,
    },
    /// A rebooted switch came back with its routes restored.
    SwitchRestored {
        /// The switch.
        node: NodeId,
    },
    /// One switch finished recomputing shortest paths; its new table
    /// applies `lag` after the reconvergence event fired.
    RoutesReconverged {
        /// The switch.
        node: NodeId,
        /// Its reconvergence lag.
        lag: SimDuration,
    },
    /// A forwarding entry was overwritten.
    RouteChanged {
        /// The switch.
        node: NodeId,
        /// The rerouted destination.
        dst: NodeId,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::LinkDown { a, b, dropped } => {
                write!(f, "link {a}-{b} DOWN ({dropped} packets destroyed)")
            }
            FaultAction::LinkUp { a, b } => write!(f, "link {a}-{b} UP"),
            FaultAction::PauseLossArmed { node, probability } => {
                write!(f, "PFC loss at {node}: p={probability}")
            }
            FaultAction::PauseDelayArmed { node, extra } => {
                write!(f, "PFC delay at {node}: +{extra}")
            }
            FaultAction::PauseFrameLost {
                from,
                to,
                priority,
                resume,
            } => write!(
                f,
                "{} {from}->{to} prio {} LOST",
                if *resume { "RESUME" } else { "PAUSE" },
                priority.0
            ),
            FaultAction::SwitchRebooted { node, dropped } => {
                write!(f, "{node} REBOOT ({dropped} packets destroyed)")
            }
            FaultAction::SwitchRestored { node } => write!(f, "{node} restored"),
            FaultAction::RoutesReconverged { node, lag } => {
                write!(f, "{node} reconverged (lag {lag})")
            }
            FaultAction::RouteChanged { node, dst } => {
                write!(f, "route to {dst} rewritten at {node}")
            }
        }
    }
}

/// A timestamped [`FaultAction`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub action: FaultAction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{square, LinkSpec};

    #[test]
    fn builder_collects_events_in_order_given() {
        let plan = FaultPlan::new()
            .link_down(SimTime::from_us(10), NodeId(0), NodeId(1))
            .link_up(SimTime::from_us(5), NodeId(0), NodeId(1));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].at, SimTime::from_us(10));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn validate_rejects_nonadjacent_endpoints() {
        let b = square(LinkSpec::default());
        // Diagonal s0-s2 does not exist in the square.
        let plan = FaultPlan::new().link_down(SimTime::ZERO, b.switches[0], b.switches[2]);
        assert!(plan.validate(&b.topo).is_err());
        let ok = FaultPlan::new().link_down(SimTime::ZERO, b.switches[0], b.switches[1]);
        ok.validate(&b.topo).unwrap();
    }

    #[test]
    fn validate_refuses_a_pair_joined_by_parallel_links() {
        use pfcsim_simcore::units::BitRate;
        let mut topo = Topology::new();
        let (s0, s1) = (topo.add_switch("S0"), topo.add_switch("S1"));
        for _ in 0..2 {
            topo.connect(s0, s1, BitRate::from_gbps(40), SimDuration::from_us(1));
        }
        let flap = |p: FaultPlan| {
            p.link_flap(
                SimTime::ZERO,
                s1,
                s0,
                SimDuration::from_us(5),
                SimDuration::from_us(10),
                2,
            )
        };
        for plan in [
            FaultPlan::new().link_down(SimTime::ZERO, s0, s1),
            FaultPlan::new().link_up(SimTime::ZERO, s1, s0),
            flap(FaultPlan::new()),
        ] {
            match plan.validate(&topo) {
                Err(Error::Config(why)) => assert!(why.starts_with("2 parallel links"), "{why}"),
                other => panic!("{plan:?} validated as {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_bad_probability_and_host_targets() {
        let b = square(LinkSpec::default());
        let bad_p = FaultPlan::new().pause_loss(SimTime::ZERO, b.switches[0], 1.5);
        assert!(bad_p.validate(&b.topo).is_err());
        let host = FaultPlan::new().pause_loss(SimTime::ZERO, b.hosts[0], 0.5);
        assert!(host.validate(&b.topo).is_err());
        let ok = FaultPlan::new().pause_loss(SimTime::ZERO, b.switches[0], 0.5);
        ok.validate(&b.topo).unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_flaps() {
        let b = square(LinkSpec::default());
        let zero_outage = FaultPlan::new().link_flap(
            SimTime::ZERO,
            b.switches[0],
            b.switches[1],
            SimDuration::ZERO,
            SimDuration::from_us(10),
            3,
        );
        assert!(zero_outage.validate(&b.topo).is_err());
        let period_too_short = FaultPlan::new().link_flap(
            SimTime::ZERO,
            b.switches[0],
            b.switches[1],
            SimDuration::from_us(10),
            SimDuration::from_us(10),
            2,
        );
        assert!(period_too_short.validate(&b.topo).is_err());
        let ok = FaultPlan::new().link_flap(
            SimTime::ZERO,
            b.switches[0],
            b.switches[1],
            SimDuration::from_us(10),
            SimDuration::from_us(30),
            2,
        );
        ok.validate(&b.topo).unwrap();
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new()
            .link_flap(
                SimTime::from_us(5),
                NodeId(2),
                NodeId(3),
                SimDuration::from_us(1),
                SimDuration::from_us(4),
                7,
            )
            .pause_loss(SimTime::from_us(9), NodeId(2), 0.25)
            .route_set(SimTime::from_us(11), NodeId(2), NodeId(0), vec![PortNo(1)]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn record_displays_compactly() {
        let r = FaultRecord {
            at: SimTime::from_us(3),
            action: FaultAction::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
                dropped: 4,
            },
        };
        assert!(format!("{}", r.action).contains("DOWN"));
    }
}

//! The static deadlock pre-check: the paper's §3 necessary condition,
//! applied to a live simulator.
//!
//! PFC deadlock needs a cyclic buffer dependency. [`window_is_deadlock_free`]
//! builds the buffer-dependency graph ([`BufferDependencyGraph`], priorities
//! merged) of every packet that is in, or can still enter, the network and
//! looks for a cycle. When there is none, no schedule from here on can
//! deadlock, and two callers skip simulation: `serve`'s `Session::what_if`
//! answers a clean push with no probe, and
//! [`NetSim::run_to_verdict`](crate::sim::NetSim::run_to_verdict) stops
//! a run whose verdict is settled. Both ask only while no deadlock is
//! confirmed: a confirmed one stays the verdict even after a fault broke
//! its cycle. The check reads the [`Datapath`] and the pending events,
//! nothing else of the simulator.
//! [`crate::serve::static_cbd`] builds the same graph from the flows' hops
//! and shares its one DFS. Both walk routes with one loop,
//! [`route_walk`], by the datapath's rule, and add edges through one
//! step, [`BufferDependencyGraph::add_hop`], so on a clean window its
//! graph is a subgraph of this one on every topology, parallel links
//! included.
//!
//! A check runs on a [`Workspace`] that its caller keeps — `serve`'s
//! `Session` one for its life, `run_to_verdict` one for its loop — so once
//! the workspace has grown to the network's state, a check allocates
//! nothing.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use pfcsim_simcore::event::EventQueue;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::{route_walk, ForwardingTables};

use crate::bdg::{BufferDependencyGraph, Dfs, RxQueue, MERGED};
use crate::packet::Frame;
use crate::sim::{Datapath, Ev};
use crate::switch::InFlight;

/// A multiply-rotate hasher (FxHash's) for [`Seen`]'s small integer keys,
/// cheaper than the default SipHash (EXPERIMENTS.md, "Apply-and-revert
/// tables"). No caller reads an iteration order. The keys are node, port
/// and flow ids of a validated session, so keys crafted to collide cost
/// at most time quadratic in their count.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s.
type FxBuild = BuildHasherDefault<FxHasher>;

/// `(switch, ingress, flow, dst)` already followed: the rest of a walk
/// is a function of it.
type Seen = HashSet<(NodeId, PortNo, FlowId, NodeId), FxBuild>;

/// What a check builds, cleared rather than freed between checks.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    g: BufferDependencyGraph,
    seen: Seen,
    /// `(node, port, frame)` of every pending `Arrive`.
    arrivals: Vec<(NodeId, PortNo, u32)>,
    dfs: Dfs,
}

/// `true` when no schedule from the present state on — `dp`, with
/// `queue`'s events pending — can deadlock the network, with every packet
/// routed by `tables` (the only tables any packet is routed with from now
/// on, which the checks below make sure of).
///
/// `tables_hold_now` says whether `tables` already hold every route update
/// pending at exactly now. That is true for `what_if`, whose tables are the
/// session's commits plus the candidate pushes, and such an update pops
/// before any packet event. A batch run passes `false`.
///
/// It builds the buffer-dependency graph, one vertex per switch ingress
/// port, of every packet that is in, or can enter, the network: a
/// dependency for each packet held in a switch egress queue or
/// serializing out of one, and a walk along `tables` — by the datapath's
/// own rule, [`Datapath::next_hop`] — of every data packet from where it is
/// next routed (past that egress, in an ingress shaper, on a link, on a
/// NIC) and of every flow not yet stopped, from its source. PFC deadlock
/// needs a cycle there (paper §3): whatever the detector can confirm, the
/// quiescence-with-bytes rule included, is a set of paused channels each
/// holding bytes queued toward another member, and every dependency still
/// to come is an edge of this graph. No paused-channel set is needed: a
/// channel stays paused only while bytes sit behind it, and those bytes
/// are in the graph.
///
/// What the graph does not model makes it answer `false`, before it walks
/// any packet: flooding on a route miss; PFC loss or delay armed on any
/// switch; and a route update (other than one `tables` holds), a fault or
/// a switch restore still to fire.
pub(crate) fn window_is_deadlock_free(
    ws: &mut Workspace,
    dp: &Datapath,
    queue: &EventQueue<Ev>,
    tables: &ForwardingTables,
    tables_hold_now: bool,
) -> bool {
    let now = queue.now();
    if dp.cfg.flood_on_miss
        || dp.pfc_loss.iter().any(Option::is_some)
        || dp.pfc_delay.iter().any(Option::is_some)
    {
        return false;
    }
    // One pass over every pending event, delay-lane residents (no handle)
    // included: an `Arrive` on a short link rides a lane, and skipping
    // lanes would hide its walk. Arrivals are only noted here, so a check
    // that a pending change fails walks nothing.
    let mut pending_change = false;
    let Workspace {
        g,
        seen,
        arrivals,
        dfs,
    } = ws;
    arrivals.clear();
    queue.for_each_live(|_, at, ev| match *ev {
        Ev::RouteUpdate { .. } => pending_change |= at > now || !tables_hold_now,
        Ev::Fault { .. } | Ev::SwitchRestore { .. } => pending_change = true,
        Ev::Arrive { node, port, frame } => arrivals.push((node, port, frame)),
        _ => {}
    });
    if pending_change {
        return false;
    }
    g.clear();
    seen.clear();
    // Follow `flow`'s traffic for `dst`, next routed at `node`, which it
    // entered through `ingress`, until it reaches a host, meets no route,
    // or repeats itself.
    let mut route = |g: &mut BufferDependencyGraph, node, ingress, flow, dst| {
        let step = |node, ingress| {
            let fresh = dp.topo.node(node).kind == NodeKind::Switch
                && seen.insert((node, ingress, flow, dst));
            fresh.then(|| dp.next_hop(tables, flow, node, dst))?
        };
        let mut from = Some(RxQueue::merged(node, ingress));
        for (_, out) in route_walk(&dp.topo, node, Some(ingress), step) {
            from = g.add_hop(&dp.topo, from, &out, MERGED, None);
        }
    };
    for &(node, port, frame) in arrivals.iter() {
        if let Frame::Data(pkt) = dp.frames.slots[frame as usize] {
            route(g, node, port, pkt.flow, pkt.dst);
        }
    }
    // A switch's `buffered` counts every byte it holds: queued,
    // serializing or in a shaper.
    for sw in dp
        .switches
        .iter()
        .flatten()
        .filter(|sw| !sw.buffered.is_zero())
    {
        for (eg, out) in sw.egress.iter().zip(dp.topo.ports(sw.node)) {
            let serializing = match &eg.in_flight {
                Some(InFlight::Data(qp)) => Some(qp),
                _ => None,
            };
            // A packet's dependency and walk are a function of its
            // `(ingress, flow, dst)`, which a queue's packets mostly share.
            let mut last = None;
            let queued = eg.queues.iter().filter(|q| !q.is_empty());
            for qp in queued.flat_map(|q| q.iter()).chain(serializing) {
                let key = (qp.ingress, qp.pkt.flow, qp.pkt.dst);
                if last.replace(key) == Some(key) {
                    continue;
                }
                let from = Some(RxQueue::merged(sw.node, qp.ingress));
                g.add_hop(&dp.topo, from, out, MERGED, None);
                route(g, out.peer, out.peer_port, qp.pkt.flow, qp.pkt.dst);
            }
        }
        for (p, ing) in sw.ingress.iter().enumerate() {
            for pkt in &ing.shaper_q {
                route(g, sw.node, PortNo(p as u16), pkt.flow, pkt.dst);
            }
        }
    }
    for (h, pkt) in dp.host_in_flight.iter().enumerate() {
        if let Some(pkt) = pkt {
            let nic = *dp.pinfo(NodeId(h as u32), PortNo(0));
            route(g, nic.peer, nic.peer_port, pkt.flow, pkt.dst);
        }
    }
    for f in dp
        .flows
        .spec
        .iter()
        .filter(|f| f.stop.is_none_or(|s| s > now))
    {
        let nic = *dp.pinfo(f.src, PortNo(0));
        route(g, nic.peer, nic.peer_port, f.id, f.dst);
    }
    g.first_cycle_in(dfs).is_none()
}

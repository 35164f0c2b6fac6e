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
//! [`crate::serve::static_cbd`] builds the same graph from flow paths and
//! shares its one DFS.

use std::collections::BTreeSet;

use pfcsim_simcore::event::EventQueue;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::ForwardingTables;

use crate::bdg::{BufferDependencyGraph, RxQueue};
use crate::packet::{Frame, Packet};
use crate::sim::{Datapath, Ev, PortInfo};
use crate::switch::InFlight;

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
    let mut arrivals = Vec::new();
    queue.for_each_live(|_, at, ev| match *ev {
        Ev::RouteUpdate { .. } => pending_change |= at > now || !tables_hold_now,
        Ev::Fault { .. } | Ev::SwitchRestore { .. } => pending_change = true,
        Ev::Arrive { node, port, frame } => arrivals.push((node, port, frame)),
        _ => {}
    });
    if pending_change {
        return false;
    }
    let mut walk = Walk {
        dp,
        tables,
        g: BufferDependencyGraph::new(),
        seen: BTreeSet::new(),
    };
    for (node, port, frame) in arrivals {
        if let Frame::Data(pkt) = dp.frames.slots[frame as usize] {
            walk.from(node, port, &pkt);
        }
    }
    for sw in dp.switches.iter().flatten() {
        for (e, eg) in sw.egress.iter().enumerate() {
            let out = *dp.pinfo(sw.node, PortNo(e as u16));
            let serializing = match &eg.in_flight {
                Some(InFlight::Data(qp)) => Some(qp),
                _ => None,
            };
            for qp in eg.queues.iter().flat_map(|q| q.iter()).chain(serializing) {
                walk.depend(sw.node, qp.ingress, &out);
                walk.from(out.peer, out.peer_port, &qp.pkt);
            }
        }
        for (p, ing) in sw.ingress.iter().enumerate() {
            for pkt in &ing.shaper_q {
                walk.from(sw.node, PortNo(p as u16), pkt);
            }
        }
    }
    for (h, pkt) in dp.host_in_flight.iter().enumerate() {
        if let Some(pkt) = pkt {
            let nic = *dp.pinfo(NodeId(h as u32), PortNo(0));
            walk.from(nic.peer, nic.peer_port, pkt);
        }
    }
    for f in dp
        .flows
        .spec
        .iter()
        .filter(|f| f.stop.is_none_or(|s| s > now))
    {
        let nic = *dp.pinfo(f.src, PortNo(0));
        walk.route(nic.peer, nic.peer_port, f.id, f.dst);
    }
    walk.g.first_cycle().is_none()
}

/// Packets followed along the window's tables into a buffer-dependency
/// graph.
struct Walk<'a> {
    dp: &'a Datapath,
    tables: &'a ForwardingTables,
    g: BufferDependencyGraph,
    /// `(switch, ingress, flow, dst)` already followed: the rest of the
    /// walk is a function of it.
    seen: BTreeSet<(NodeId, PortNo, FlowId, NodeId)>,
}

impl Walk<'_> {
    fn from(&mut self, node: NodeId, ingress: PortNo, pkt: &Packet) {
        self.route(node, ingress, pkt.flow, pkt.dst);
    }

    /// Follow `flow`'s traffic for `dst`, next routed at `node`, which it
    /// entered through `ingress`, until it reaches a host, meets no route,
    /// or repeats itself.
    fn route(&mut self, mut node: NodeId, mut ingress: PortNo, flow: FlowId, dst: NodeId) {
        while self.dp.topo.node(node).kind == NodeKind::Switch
            && self.seen.insert((node, ingress, flow, dst))
        {
            let Some(e) = self.dp.next_hop(self.tables, flow, node, dst) else {
                return;
            };
            let out = *self.dp.pinfo(node, e);
            self.depend(node, ingress, &out);
            (node, ingress) = (out.peer, out.peer_port);
        }
    }

    /// Bytes that entered `node` through `ingress` and leave by the port
    /// behind `out` wait on the next buffer, when a switch owns it.
    fn depend(&mut self, node: NodeId, ingress: PortNo, out: &PortInfo) {
        if self.dp.topo.node(out.peer).kind == NodeKind::Switch {
            self.g.add_dependency(
                RxQueue::merged(node, ingress),
                RxQueue::merged(out.peer, out.peer_port),
            );
        }
    }
}

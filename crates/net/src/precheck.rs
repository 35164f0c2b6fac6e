//! The static deadlock pre-check: the paper's §3 necessary condition,
//! applied to a live simulator.
//!
//! PFC deadlock needs a cyclic buffer dependency. [`window_is_deadlock_free`]
//! builds the buffer-dependency graph ([`Bdg`]) of every packet that is in,
//! or can still enter, the network and looks for a cycle. When there is none,
//! no schedule from here on can deadlock, and two callers skip simulation:
//! `serve`'s `Session::what_if` answers a clean push with no probe, and
//! [`NetSim::run_to_verdict`] stops a run whose verdict is settled.
//! [`crate::serve::static_cbd`] shares the graph type and its one DFS.

use std::collections::{BTreeMap, BTreeSet};

use pfcsim_simcore::units::BitRate;
use pfcsim_topo::graph::NodeKind;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::ForwardingTables;

use crate::packet::{Frame, Packet};
use crate::sim::{Ev, NetSim, PortInfo};
use crate::switch::InFlight;

/// A buffer-dependency graph over switch ingress buffers, priorities
/// merged (any cycle among `(switch, port, priority)` channels projects
/// onto a cycle here). A vertex is `(switch, upstream neighbour)`, the
/// buffer that neighbour's traffic fills; an edge `u → v` says bytes in
/// `u` wait on `v`, labelled with the downstream link rate and the least
/// TTL feeding it (Eq. 3's inputs).
#[derive(Default)]
pub(crate) struct Bdg {
    ids: BTreeMap<(NodeId, NodeId), usize>,
    /// Vertex id → `(switch, upstream neighbour)`.
    pub(crate) rev: Vec<(NodeId, NodeId)>,
    /// Edge → `(least downstream rate, least TTL)`.
    pub(crate) edges: BTreeMap<(usize, usize), (BitRate, u8)>,
}

impl Bdg {
    fn vertex(&mut self, key: (NodeId, NodeId)) -> usize {
        let next = self.rev.len();
        *self.ids.entry(key).or_insert_with(|| {
            self.rev.push(key);
            next
        })
    }

    /// Traffic that entered switch `b` from `a` and leaves toward switch
    /// `c`: `b`'s buffer for `a` waits on `c`'s buffer for `b`.
    pub(crate) fn add(&mut self, a: NodeId, b: NodeId, c: NodeId, rate: BitRate, ttl: u8) {
        let u = self.vertex((b, a));
        let v = self.vertex((c, b));
        self.edges
            .entry((u, v))
            .and_modify(|e| {
                e.0 = e.0.min(rate);
                e.1 = e.1.min(ttl);
            })
            .or_insert((rate, ttl));
    }

    /// The first cycle an iterative three-colour DFS meets, as vertex ids
    /// in order: the back edge closes it as a suffix of the explicit stack.
    pub(crate) fn find_cycle(&self) -> Option<Vec<usize>> {
        let n = self.rev.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in self.edges.keys() {
            adj[u].push(v);
        }
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        for s in 0..n {
            if color[s] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
            color[s] = 1;
            while let Some(&(v, i)) = stack.last() {
                if i < adj[v].len() {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let w = adj[v][i];
                    if color[w] == 0 {
                        color[w] = 1;
                        stack.push((w, 0));
                    } else if color[w] == 1 {
                        let pos = stack
                            .iter()
                            .position(|&(x, _)| x == w)
                            .expect("gray vertex is on the stack");
                        return Some(stack[pos..].iter().map(|&(x, _)| x).collect());
                    }
                } else {
                    color[v] = 2;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// `true` when no schedule from `sim`'s present state on can deadlock it,
/// with every packet routed by `tables` (the only tables any packet is
/// routed with from now on, which the checks below make sure of).
///
/// `tables_hold_now` says whether `tables` already hold every route update
/// pending at exactly now. That is true for `what_if`, whose tables are the
/// session's commits plus the candidate pushes, and such an update pops
/// before any packet event. A batch run passes `false`.
///
/// It builds the [`Bdg`] of every packet that is in, or can enter, the
/// network: a dependency for each packet held in a switch egress queue or
/// serializing out of one, and a walk along `tables` — by the datapath's
/// own rule, [`NetSim::next_hop`] — of every data packet from where it is
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
/// any packet: flooding on a route miss; a deadlock already confirmed,
/// which stays the verdict even after a fault broke the cycle; PFC loss or
/// delay armed on any switch; and a route update (other than one `tables`
/// holds), a fault or a switch restore still to fire.
pub(crate) fn window_is_deadlock_free(
    sim: &NetSim,
    tables: &ForwardingTables,
    tables_hold_now: bool,
) -> bool {
    let now = sim.now();
    if sim.cfg.flood_on_miss
        || sim.deadlock_state().is_some()
        || sim.pfc_loss.iter().any(Option::is_some)
        || sim.pfc_delay.iter().any(Option::is_some)
    {
        return false;
    }
    // One pass over every pending event, delay-lane residents (no handle)
    // included: an `Arrive` on a short link rides a lane, and skipping
    // lanes would hide its walk. Arrivals are only noted here, so a check
    // that a pending change fails walks nothing.
    let mut pending_change = false;
    let mut arrivals = Vec::new();
    sim.queue.for_each_live(|_, at, ev| match *ev {
        Ev::RouteUpdate { .. } => pending_change |= at > now || !tables_hold_now,
        Ev::Fault { .. } | Ev::SwitchRestore { .. } => pending_change = true,
        Ev::Arrive { node, port, frame } => arrivals.push((node, port, frame)),
        _ => {}
    });
    if pending_change {
        return false;
    }
    let mut walk = Walk {
        sim,
        tables,
        g: Bdg::default(),
        seen: BTreeSet::new(),
    };
    for (node, port, frame) in arrivals {
        if let Frame::Data(pkt) = sim.frames[frame as usize] {
            walk.from(node, port, &pkt);
        }
    }
    for sw in sim.switches.iter().flatten() {
        for (e, eg) in sw.egress.iter().enumerate() {
            let out = *sim.pinfo(sw.node, PortNo(e as u16));
            let serializing = match &eg.in_flight {
                Some(InFlight::Data(qp)) => Some(qp),
                _ => None,
            };
            for qp in eg.queues.iter().flat_map(|q| q.iter()).chain(serializing) {
                walk.depend(sw.node, qp.ingress, &out, qp.pkt.ttl);
                walk.from(out.peer, out.peer_port, &qp.pkt);
            }
        }
        for (p, ing) in sw.ingress.iter().enumerate() {
            for pkt in &ing.shaper_q {
                walk.from(sw.node, PortNo(p as u16), pkt);
            }
        }
    }
    for (h, pkt) in sim.host_in_flight.iter().enumerate() {
        if let Some(pkt) = pkt {
            let nic = *sim.pinfo(NodeId(h as u32), PortNo(0));
            walk.from(nic.peer, nic.peer_port, pkt);
        }
    }
    for f in sim.flows.iter().filter(|f| f.stop.is_none_or(|s| s > now)) {
        let nic = *sim.pinfo(f.src, PortNo(0));
        walk.route(nic.peer, nic.peer_port, f.id, f.dst, f.ttl);
    }
    walk.g.find_cycle().is_none()
}

/// Packets followed along the window's tables into a [`Bdg`].
struct Walk<'a> {
    sim: &'a NetSim,
    tables: &'a ForwardingTables,
    g: Bdg,
    /// `(switch, ingress, flow, dst)` already followed: the rest of the
    /// walk is a function of it.
    seen: BTreeSet<(NodeId, PortNo, FlowId, NodeId)>,
}

impl Walk<'_> {
    fn from(&mut self, node: NodeId, ingress: PortNo, pkt: &Packet) {
        self.route(node, ingress, pkt.flow, pkt.dst, pkt.ttl);
    }

    /// Follow `flow`'s traffic for `dst`, next routed at `node`, which it
    /// entered through `ingress`, until it reaches a host, meets no route,
    /// or repeats itself.
    fn route(&mut self, mut node: NodeId, mut ingress: PortNo, flow: FlowId, dst: NodeId, ttl: u8) {
        while self.sim.topo.node(node).kind == NodeKind::Switch
            && self.seen.insert((node, ingress, flow, dst))
        {
            let Some(e) = self.sim.next_hop(self.tables, flow, node, dst) else {
                return;
            };
            let out = *self.sim.pinfo(node, e);
            self.depend(node, ingress, &out, ttl);
            (node, ingress) = (out.peer, out.peer_port);
        }
    }

    /// Bytes that entered `node` through `ingress` and leave by the port
    /// behind `out` wait on the next buffer, when a switch owns it.
    fn depend(&mut self, node: NodeId, ingress: PortNo, out: &PortInfo, ttl: u8) {
        if self.sim.topo.node(out.peer).kind == NodeKind::Switch {
            let from = self.sim.pinfo(node, ingress).peer;
            self.g.add(from, node, out.peer, out.rate, ttl);
        }
    }
}

//! Runtime deadlock detection.
//!
//! A PFC deadlock is a set of paused channels that can *never* resume: each
//! pausing ingress queue holds at least XON bytes that are queued toward
//! egresses whose channels are themselves permanently paused. We find the
//! largest such set by a fixpoint elimination:
//!
//! 1. Start from every channel currently paused (switch-to-switch only —
//!    hosts are sources/sinks and cannot propagate a pause cycle).
//! 2. Repeatedly *unfreeze* any channel whose pausing ingress holds fewer
//!    than XON bytes destined to still-frozen egresses: once everything
//!    else drains, its counter must fall below XON and it will resume.
//! 3. Whatever survives is self-sustaining: a proven permanent deadlock.
//!
//! The analysis is sound (never reports a resumable configuration as
//! deadlocked) because in-flight and shaper-held bytes are optimistically
//! treated as drainable; it converges to exact at event-queue quiescence,
//! which is how [`NetSim::run_with_drain`](crate::sim::NetSim::run_with_drain)
//! uses it.
//!
//! ## Two implementations
//!
//! [`NetSim::analyze_deadlock`] is the production path: an *incremental*
//! worklist elimination over a dense channel arena (`DeadlockTracker`).
//! The datapath notifies the tracker of every PAUSE/RESUME flip, so a scan
//! never walks the fabric looking for candidates — it reads them off a
//! bitset — and each release propagates only to the channels it can
//! actually affect (same switch, plus the upstream switch feeding it).
//! All working state lives in preallocated scratch buffers that are
//! cleared sparsely, so steady-state scans allocate nothing.
//!
//! [`NetSim::analyze_deadlock_reference`] is the original round-based
//! fixpoint, kept verbatim as an executable specification. The release
//! condition `stuck < optimistic_xon` is *antitone* in the frozen set
//! (shrinking the set can only lower `stuck` and raise the optimistic
//! XON), so eliminations never invalidate earlier eliminations and both
//! orders converge to the same greatest fixpoint — identical verdict and
//! identical witness. A property test (`tests/deadlock_equiv.rs`) checks
//! this on randomized topologies, traffic, and fault scripts.

use std::collections::{BTreeMap, BTreeSet};

use pfcsim_simcore::scratch::DenseBitSet;
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{NodeId, PortNo, Priority};

use crate::bdg::RxQueue;
use crate::sim::{Datapath, NetSim, PortInfo};
use crate::stats::PauseKey;

const P: usize = Priority::COUNT;

/// Dense channel arena + event-maintained pause state for the incremental
/// deadlock detector.
///
/// Slots and chans are the datapath's own port and channel indices
/// (`Datapath::pid` and `Datapath::chan`): every `(node, port)` is the
/// slot `port_base[node] + port`, and every `(slot, prio)` the chan
/// `slot * 8 + prio`. Chan indices are lexicographic in
/// `(node, port, prio)`, so ascending bitset iteration reproduces the
/// reference analyzer's `BTreeSet<RxQueue>` order exactly — which pins the
/// witness, not just the verdict.
///
/// The datapath keeps `paused` current via [`DeadlockTracker::note_pause`]
/// and bumps `epoch` on every queue-content change via
/// [`DeadlockTracker::note_bytes_moved`]; a scan that found no deadlock at
/// epoch E can be skipped verbatim while the epoch is still E.
#[derive(Debug, Default)]
pub(crate) struct DeadlockTracker {
    /// Slot → owning node.
    pub(crate) slot_node: Vec<u32>,
    /// Slot → local port number.
    pub(crate) slot_port: Vec<u16>,
    /// Slot → slot of the same link's far end `(peer, peer_port)`.
    pub(crate) slot_peer: Vec<u32>,
    /// Slot is a switch ingress whose upstream peer is also a switch —
    /// the only channels that can participate in a pause cycle.
    pub(crate) candidate: DenseBitSet,
    /// Chan → pause currently asserted (candidates only).
    pub(crate) paused: DenseBitSet,
    /// Number of set bits in `paused` — the O(1) "anything to scan?" probe.
    pub(crate) paused_count: usize,
    /// Bumped on every pause flip and queue byte movement; a scan result
    /// is reusable while the epoch it was computed at is still current.
    pub(crate) epoch: u64,
    // ---- scan scratch (sized once, cleared sparsely) ----
    /// Chan → bytes stuck toward still-frozen egresses.
    pub(crate) stuck: Vec<u64>,
    /// Node → total stuck bytes wedged at that switch.
    pub(crate) stuck_at_node: Vec<u64>,
    /// Chans gathered for this scan, ascending.
    pub(crate) frozen: Vec<u32>,
    pub(crate) in_frozen: DenseBitSet,
    pub(crate) in_work: DenseBitSet,
    pub(crate) work: Vec<u32>,
    pub(crate) touched_nodes: Vec<u32>,
    pub(crate) node_touched: DenseBitSet,
}

impl DeadlockTracker {
    pub(crate) fn new(topo: &Topology, port_info: &[PortInfo], port_base: &[u32]) -> Self {
        let n_nodes = topo.node_count();
        let n_slots = port_info.len();
        let mut slot_node = vec![0u32; n_slots];
        let mut slot_port = vec![0u16; n_slots];
        let mut slot_peer = vec![0u32; n_slots];
        let mut candidate = DenseBitSet::new(n_slots);
        for n in 0..n_nodes {
            let is_switch = topo.node(NodeId(n as u32)).kind == NodeKind::Switch;
            let first = port_base[n] as usize;
            for s in first..port_base[n + 1] as usize {
                let info = &port_info[s];
                slot_node[s] = n as u32;
                slot_port[s] = (s - first) as u16;
                slot_peer[s] = port_base[info.peer.0 as usize] + info.peer_port.0 as u32;
                if is_switch && topo.node(info.peer).kind == NodeKind::Switch {
                    candidate.set(s);
                }
            }
        }
        DeadlockTracker {
            slot_node,
            slot_port,
            slot_peer,
            candidate,
            paused: DenseBitSet::new(n_slots * P),
            paused_count: 0,
            epoch: 0,
            stuck: vec![0; n_slots * P],
            stuck_at_node: vec![0; n_nodes],
            frozen: Vec::new(),
            in_frozen: DenseBitSet::new(n_slots * P),
            in_work: DenseBitSet::new(n_slots * P),
            work: Vec::new(),
            touched_nodes: Vec::new(),
            node_touched: DenseBitSet::new(n_nodes),
        }
    }

    /// Datapath hook: ingress channel `c` (`Datapath::chan`) asserted
    /// (`on`) or released a pause. Idempotent; non-candidate channels are
    /// ignored.
    #[inline]
    pub(crate) fn note_pause(&mut self, c: usize, on: bool) {
        if !self.candidate.get(c / P) {
            return;
        }
        let changed = if on {
            self.paused.set(c)
        } else {
            self.paused.clear(c)
        };
        if changed {
            if on {
                self.paused_count += 1;
            } else {
                self.paused_count -= 1;
            }
            self.epoch = self.epoch.wrapping_add(1);
        }
    }

    /// Datapath hook: some egress queue's contents changed (enqueue,
    /// dequeue, or drain) — any cached negative verdict is stale.
    #[inline]
    pub(crate) fn note_bytes_moved(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Current change epoch (pause flips + byte movement).
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshot the dynamic state for a checkpoint: the ascending chan
    /// indices currently paused. Static arrays are rebuilt from the
    /// topology on restore, so they are not captured.
    pub(crate) fn paused_channels(&self) -> Vec<u32> {
        self.paused.iter_ones().map(|c| c as u32).collect()
    }

    /// Restore the dynamic state captured by
    /// [`DeadlockTracker::paused_channels`] onto a freshly built tracker.
    pub(crate) fn restore_paused(&mut self, channels: &[u32], epoch: u64) {
        debug_assert_eq!(self.paused_count, 0, "restore onto a fresh tracker");
        for &c in channels {
            if self.paused.set(c as usize) {
                self.paused_count += 1;
            }
        }
        self.epoch = epoch;
    }
}

impl NetSim {
    /// Run the deadlock fixpoint on the current state. Returns a witness —
    /// a cyclic core of permanently-paused channels if one exists, else the
    /// whole frozen set — or `None` if every pause can still resolve.
    ///
    /// This is the incremental worklist implementation over the dense
    /// channel arena; it is verdict-and-witness equivalent to
    /// [`NetSim::analyze_deadlock_reference`] (see module docs) but does
    /// no allocation and no fabric walk on the (overwhelmingly common)
    /// negative path.
    pub fn analyze_deadlock(&mut self) -> Option<Vec<PauseKey>> {
        let core = self.dp.analyze_deadlock(&mut self.cp.dl)?;
        Some(self.dp.witness(&core))
    }

    /// The original round-based fixpoint, kept as the executable
    /// specification the incremental detector is property-tested against.
    pub fn analyze_deadlock_reference(&self) -> Option<Vec<PauseKey>> {
        let core = self.dp.analyze_deadlock_reference()?;
        Some(self.dp.witness(&core))
    }
}

/// The analyses read the datapath and nothing else: switch buffers, the
/// port table, the PFC thresholds, and (for the incremental one) the
/// tracker's pause set and scratch.
impl Datapath {
    /// [`NetSim::analyze_deadlock`] over this datapath and `dl`, the
    /// tracker its handlers keep current, naming the frozen queues
    /// themselves (see [`Datapath::witness`]).
    pub(crate) fn analyze_deadlock(&self, dl: &mut DeadlockTracker) -> Option<Vec<RxQueue>> {
        if dl.paused_count == 0 {
            return None;
        }
        self.worklist_eliminate(dl)
    }

    /// Kahn-style elimination: seed from the paused bitset, release
    /// channels one at a time, and propagate each release only to the
    /// channels whose `stuck` or node total it changed.
    fn worklist_eliminate(&self, dl: &mut DeadlockTracker) -> Option<Vec<RxQueue>> {
        // Gather the frozen candidates in ascending chan order — identical
        // to the reference's sorted BTreeSet iteration.
        dl.frozen.clear();
        {
            let DeadlockTracker { paused, frozen, .. } = dl;
            frozen.extend(paused.iter_ones().map(|c| c as u32));
        }
        for i in 0..dl.frozen.len() {
            dl.in_frozen.set(dl.frozen[i] as usize);
        }
        // Initial stuck counts: only bytes headed for frozen egresses.
        for i in 0..dl.frozen.len() {
            let c = dl.frozen[i] as usize;
            let slot = c / P;
            let prio = (c % P) as u8;
            let n = dl.slot_node[slot] as usize;
            let port = PortNo(dl.slot_port[slot]);
            let sw = self.switches[n].as_ref().expect("paused chan on a switch");
            let base = self.port_base[n] as usize;
            let mut stuck = 0u64;
            for e in 0..self.port_base[n + 1] as usize - base {
                let down = dl.slot_peer[base + e] as usize;
                if dl.in_frozen.get(down * P + prio as usize) {
                    stuck += sw.stuck_bytes(port, Priority(prio), e).get();
                }
            }
            dl.stuck[c] = stuck;
            dl.stuck_at_node[n] += stuck;
            if dl.node_touched.set(n) {
                dl.touched_nodes.push(n as u32);
            }
        }
        // Worklist: every frozen chan is initially up for release.
        dl.work.clear();
        dl.work.extend_from_slice(&dl.frozen);
        for i in 0..dl.work.len() {
            dl.in_work.set(dl.work[i] as usize);
        }
        while let Some(c32) = dl.work.pop() {
            let c = c32 as usize;
            dl.in_work.clear(c);
            if !dl.in_frozen.get(c) {
                continue; // already released
            }
            let slot = c / P;
            let prio = c % P;
            let n = dl.slot_node[slot] as usize;
            let port = PortNo(dl.slot_port[slot]);
            let xon = self
                .optimistic_xon(NodeId(n as u32), port, dl.stuck_at_node[n])
                .get();
            if dl.stuck[c] >= xon {
                continue; // still wedged under current frozen set
            }
            // Release c: its ingress will eventually drain below XON.
            dl.in_frozen.clear(c);
            dl.stuck_at_node[n] -= dl.stuck[c];
            // The upstream switch's ingresses no longer count bytes queued
            // on the egress feeding c.
            let up_slot = dl.slot_peer[slot] as usize;
            let u_node = dl.slot_node[up_slot] as usize;
            let u_port = dl.slot_port[up_slot] as usize;
            let usw = self.switches[u_node]
                .as_ref()
                .expect("candidate chans have switch peers");
            let u_base = self.port_base[u_node] as usize;
            for q in 0..self.port_base[u_node + 1] as usize - u_base {
                let uc = (u_base + q) * P + prio;
                if dl.in_frozen.get(uc) {
                    let delta = usw
                        .stuck_bytes(PortNo(q as u16), Priority(prio as u8), u_port)
                        .get();
                    dl.stuck[uc] -= delta;
                    dl.stuck_at_node[u_node] -= delta;
                }
            }
            // Both affected nodes saw their totals (hence optimistic XON)
            // change: re-examine every still-frozen chan there.
            for &m in &[n, u_node] {
                let base = self.port_base[m] as usize * P;
                let end = self.port_base[m + 1] as usize * P;
                for cc in base..end {
                    if dl.in_frozen.get(cc) && dl.in_work.set(cc) {
                        dl.work.push(cc as u32);
                    }
                }
            }
        }
        // Survivors (ascending == reference's sorted order), then sparse
        // scratch reset so the next scan starts clean without a full wipe.
        let mut survivors: BTreeSet<RxQueue> = BTreeSet::new();
        for i in 0..dl.frozen.len() {
            let c = dl.frozen[i] as usize;
            if dl.in_frozen.get(c) {
                let slot = c / P;
                survivors.insert(RxQueue {
                    node: NodeId(dl.slot_node[slot]),
                    port: PortNo(dl.slot_port[slot]),
                    priority: Priority((c % P) as u8),
                });
            }
        }
        for i in 0..dl.frozen.len() {
            let c = dl.frozen[i] as usize;
            dl.stuck[c] = 0;
            dl.in_frozen.clear(c);
        }
        for i in 0..dl.touched_nodes.len() {
            let n = dl.touched_nodes[i] as usize;
            dl.stuck_at_node[n] = 0;
            dl.node_touched.clear(n);
        }
        dl.frozen.clear();
        dl.touched_nodes.clear();
        if survivors.is_empty() {
            return None;
        }
        Some(self.frozen_core(survivors))
    }

    /// [`NetSim::analyze_deadlock_reference`] over this datapath, naming
    /// the frozen queues themselves.
    pub(crate) fn analyze_deadlock_reference(&self) -> Option<Vec<RxQueue>> {
        // Candidate set: every asserted pause whose upstream is a switch.
        let mut frozen: BTreeSet<RxQueue> = BTreeSet::new();
        for sw in self.switches.iter().flatten() {
            for (pi, ing) in sw.ingress.iter().enumerate() {
                let port = PortNo(pi as u16);
                let peer = self.peer_of(sw.node, port);
                if self.topo.node(peer).kind != NodeKind::Switch {
                    continue;
                }
                for (prio, &sent) in ing.pause_sent.iter().enumerate() {
                    if sent {
                        frozen.insert(RxQueue {
                            node: sw.node,
                            port,
                            priority: Priority(prio as u8),
                        });
                    }
                }
            }
        }
        if frozen.is_empty() {
            return None;
        }

        // Fixpoint elimination. Under dynamic (alpha) thresholds the XON
        // level rises as the rest of the buffer drains, so the resume test
        // must use the *optimistic* threshold — computed as if everything
        // except the frozen set's own stuck bytes had already left the
        // switch — to stay sound (never report a resolvable state).
        loop {
            let mut stuck_of: std::collections::BTreeMap<RxQueue, u64> = BTreeMap::new();
            let mut stuck_at_node: BTreeMap<NodeId, u64> = BTreeMap::new();
            for &ch in &frozen {
                let stuck = self.stuck_toward_frozen(ch, &frozen);
                stuck_of.insert(ch, stuck);
                *stuck_at_node.entry(ch.node).or_insert(0) += stuck;
            }
            let mut released = Vec::new();
            for &ch in &frozen {
                let stuck = stuck_of[&ch];
                let xon = self
                    .optimistic_xon(ch.node, ch.port, stuck_at_node[&ch.node])
                    .get();
                if stuck < xon {
                    released.push(ch);
                }
            }
            if released.is_empty() {
                break;
            }
            for ch in released {
                frozen.remove(&ch);
            }
        }
        if frozen.is_empty() {
            return None;
        }
        Some(self.frozen_core(frozen))
    }

    /// A cycle within the frozen set if one exists, else the whole set.
    fn frozen_core(&self, frozen: BTreeSet<RxQueue>) -> Vec<RxQueue> {
        let cycle = self.find_frozen_cycle(&frozen);
        if cycle.is_empty() {
            frozen.into_iter().collect()
        } else {
            cycle
        }
    }

    /// The frozen queues as the pause channels a verdict reports: the
    /// queue's upstream neighbour, its switch, and its class.
    pub(crate) fn witness(&self, core: &[RxQueue]) -> Vec<PauseKey> {
        core.iter()
            .map(|ch| PauseKey {
                from: self.peer_of(ch.node, ch.port),
                to: ch.node,
                priority: ch.priority,
            })
            .collect()
    }

    fn peer_of(&self, node: NodeId, port: PortNo) -> NodeId {
        self.pinfo(node, port).peer
    }

    /// The highest XON this ingress could ever see while `stuck_at_node`
    /// bytes remain wedged at the switch: static configs return the
    /// configured XON; dynamic-alpha configs assume every non-stuck byte
    /// has drained (maximal free buffer, maximal threshold).
    fn optimistic_xon(&self, node: NodeId, port: PortNo, stuck_at_node: u64) -> Bytes {
        let pfc = self.switch_pfc[node.0 as usize]
            .as_ref()
            .unwrap_or(&self.cfg.pfc);
        let sw = self.switches[node.0 as usize].as_ref().expect("switch");
        let base_xon = sw.ingress[port.0 as usize].xon_override.unwrap_or(pfc.xon);
        match pfc.dynamic_alpha {
            None => base_xon,
            Some((num, den)) => {
                let base_xoff = sw.ingress[port.0 as usize]
                    .xoff_override
                    .unwrap_or(pfc.xoff);
                let free_best = self
                    .cfg
                    .switch_buffer
                    .saturating_sub(Bytes::new(stuck_at_node));
                let dyn_xoff = Bytes::new(
                    u64::try_from(free_best.get() as u128 * num as u128 / den as u128)
                        .expect("fits"),
                )
                .min(base_xoff);
                Bytes::new(dyn_xoff.get() * base_xon.get() / base_xoff.get().max(1))
            }
        }
    }

    /// Bytes accounted to `ch`'s ingress that are queued toward egresses
    /// whose outgoing channel is in `frozen`.
    fn stuck_toward_frozen(&self, ch: RxQueue, frozen: &BTreeSet<RxQueue>) -> u64 {
        let sw = self.switches[ch.node.0 as usize]
            .as_ref()
            .expect("frozen channel is on a switch");
        let mut stuck = 0;
        for (e, _) in sw.egress.iter().enumerate() {
            let epeer = self.peer_of(ch.node, PortNo(e as u16));
            if self.topo.node(epeer).kind != NodeKind::Switch {
                continue;
            }
            let epeer_port = self.pinfo(ch.node, PortNo(e as u16)).peer_port;
            let downstream = RxQueue {
                node: epeer,
                port: epeer_port,
                priority: ch.priority,
            };
            if frozen.contains(&downstream) {
                stuck += sw.stuck_bytes(ch.port, ch.priority, e).get();
            }
        }
        stuck
    }

    /// DFS for a directed cycle in the "holds bytes toward" relation among
    /// frozen channels.
    fn find_frozen_cycle(&self, frozen: &BTreeSet<RxQueue>) -> Vec<RxQueue> {
        // Build adjacency: frozen channel A -> frozen channel B when A's
        // ingress holds bytes queued on the egress whose channel is B.
        let nodes: Vec<RxQueue> = frozen.iter().copied().collect();
        let index: BTreeMap<RxQueue, usize> =
            nodes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, &ch) in nodes.iter().enumerate() {
            let sw = self.switches[ch.node.0 as usize].as_ref().expect("switch");
            for (e, _) in sw.egress.iter().enumerate() {
                let epeer = self.peer_of(ch.node, PortNo(e as u16));
                if self.topo.node(epeer).kind != NodeKind::Switch {
                    continue;
                }
                let downstream = RxQueue {
                    node: epeer,
                    port: self.pinfo(ch.node, PortNo(e as u16)).peer_port,
                    priority: ch.priority,
                };
                if let Some(&j) = index.get(&downstream) {
                    if !sw.stuck_bytes(ch.port, ch.priority, e).is_zero() {
                        adj[i].push(j);
                    }
                }
            }
        }
        // Iterative DFS with colouring to extract one cycle.
        let n = nodes.len();
        let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            colour[start] = 1;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if *next < adj[u].len() {
                    let v = adj[u][*next];
                    *next += 1;
                    match colour[v] {
                        0 => {
                            colour[v] = 1;
                            parent[v] = u;
                            stack.push((v, 0));
                        }
                        1 => {
                            // Found a cycle v -> ... -> u -> v.
                            let mut cyc = vec![nodes[v]];
                            let mut cur = u;
                            while cur != v {
                                cyc.push(nodes[cur]);
                                cur = parent[cur];
                            }
                            cyc.reverse();
                            return cyc;
                        }
                        _ => {}
                    }
                } else {
                    colour[u] = 2;
                    stack.pop();
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::flow::FlowSpec;
    use crate::sim::SimBuilder;
    use pfcsim_simcore::time::SimTime;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{line, two_switch_loop, LinkSpec};
    use pfcsim_topo::routing::install_cycle_route;

    #[test]
    fn no_deadlock_reported_on_clean_network() {
        let b = line(3, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[2]));
        let report = sim.run(SimTime::from_us(500));
        assert!(!report.verdict.is_deadlock());
    }

    #[test]
    fn loop_deadlock_witness_contains_the_cycle() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables)
            .build();
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(10)).with_ttl(16));
        let report = sim.run(SimTime::from_ms(50));
        match report.verdict {
            crate::sim::Verdict::Deadlock { ref witness, .. } => {
                // The A<->B cycle: both directions of the inter-switch link.
                let chans: Vec<(u32, u32)> = witness.iter().map(|k| (k.from.0, k.to.0)).collect();
                assert!(
                    chans.contains(&(b.switches[0].0, b.switches[1].0)),
                    "witness {chans:?} misses A->B"
                );
                assert!(
                    chans.contains(&(b.switches[1].0, b.switches[0].0)),
                    "witness {chans:?} misses B->A"
                );
            }
            ref v => panic!("expected deadlock, got {v:?}"),
        }
    }

    #[test]
    fn drain_protocol_confirms_loop_deadlock_permanence() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut cfg = SimConfig::default();
        cfg.stop_on_deadlock = false; // let the drain play out
        let mut sim = SimBuilder::new(&b.topo).config(cfg).tables(tables).build();
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(10)).with_ttl(16));
        let report = sim.run_with_drain(SimTime::from_ms(20), SimTime::from_ms(60));
        assert!(report.verdict.is_deadlock());
        assert!(report.quiesced, "deadlocked drain must quiesce");
        assert!(
            !report.buffered.is_zero(),
            "bytes must remain wedged in the cycle"
        );
    }
}

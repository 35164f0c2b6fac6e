//! Routing: forwarding tables, path computation, ECMP, and loop injection.
//!
//! Tables are per-destination-host next-hop sets, exactly like real L3
//! datacenter fabrics (the paper's networks run BGP with one private AS per
//! switch). Deliberately *wrong* tables — routing loops from
//! misconfiguration, BGP reroute or SDN-update transients — are first-class
//! citizens here, because they are the paper's deadlock triggers.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::graph::{NodeKind, Topology};
use crate::ids::{FlowId, NodeId, PortNo};

/// Per-node, per-destination next-hop port sets (ECMP when > 1).
///
/// Stored dense — `tables[node][dst]` is the port list, empty meaning
/// unroutable — so the per-packet `next_hops` lookup on the forwarding
/// path is two array indexes rather than a tree walk. Node-id spaces are
/// small (a fat-tree k=8 is ~200 nodes), so the quadratic table is a few
/// hundred KB at worst while updates stay O(1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ForwardingTables {
    tables: Vec<Vec<Vec<PortNo>>>,
}

impl ForwardingTables {
    /// Empty tables sized for `topo`.
    pub fn empty(topo: &Topology) -> Self {
        ForwardingTables {
            tables: vec![vec![Vec::new(); topo.node_count()]; topo.node_count()],
        }
    }

    /// Whether these tables have one row per node of `topo`, as every
    /// table built for it has (rows index by node id).
    pub fn is_sized_for(&self, topo: &Topology) -> bool {
        self.tables.len() == topo.node_count()
    }

    /// Next-hop ports at `node` toward destination host `dst` (empty slice
    /// if unroutable).
    pub fn next_hops(&self, node: NodeId, dst: NodeId) -> &[PortNo] {
        self.tables
            .get(node.0 as usize)
            .and_then(|t| t.get(dst.0 as usize))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Install/overwrite the route for `dst` at `node`.
    pub fn set(&mut self, node: NodeId, dst: NodeId, ports: Vec<PortNo>) {
        self.replace(node, dst, ports);
    }

    /// [`Self::set`], handing back the port list it overwrote (empty when
    /// unroutable). On tables with an entry for every `(node, dst)`, as
    /// [`Self::empty`] builds them, `set`ting it back restores the tables
    /// exactly.
    pub fn replace(&mut self, node: NodeId, dst: NodeId, ports: Vec<PortNo>) -> Vec<PortNo> {
        let row = &mut self.tables[node.0 as usize];
        if row.len() <= dst.0 as usize {
            row.resize(dst.0 as usize + 1, Vec::new());
        }
        std::mem::replace(&mut row[dst.0 as usize], ports)
    }

    /// Remove the route for `dst` at `node` (black-hole).
    pub fn remove(&mut self, node: NodeId, dst: NodeId) {
        if let Some(p) = self.tables[node.0 as usize].get_mut(dst.0 as usize) {
            p.clear();
        }
    }

    /// All (dst, ports) entries at `node`, in ascending destination order.
    pub fn entries(&self, node: NodeId) -> impl Iterator<Item = (NodeId, &[PortNo])> + '_ {
        self.tables[node.0 as usize]
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(d, p)| (NodeId(d as u32), p.as_slice()))
    }

    /// Deterministic ECMP pick for a flow at a node.
    pub fn select(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortNo> {
        let hops = self.next_hops(node, dst);
        if hops.is_empty() {
            return None;
        }
        Some(hops[ecmp_index(flow, node, hops.len())])
    }
}

/// Deterministic ECMP index: a stateless hash of (flow, node) — the same
/// flow always takes the same port at a given switch (per-flow ECMP).
pub fn ecmp_index(flow: FlowId, node: NodeId, n: usize) -> usize {
    debug_assert!(n > 0);
    let mut x = (flow.0 as u64) << 32 | node.0 as u64;
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n as u64) as usize
}

/// BFS distances (in hops) from `from` to every node, not routing through
/// hosts (hosts have degree 1 anyway, but parallel models may differ).
pub fn bfs_distances(topo: &Topology, from: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.node_count()];
    dist[from.0 as usize] = Some(0);
    let mut q = VecDeque::from([from]);
    while let Some(u) = q.pop_front() {
        let du = dist[u.0 as usize].expect("queued nodes have distances");
        // Hosts terminate paths (except the source itself).
        if topo.node(u).kind == NodeKind::Host && u != from {
            continue;
        }
        for p in topo.ports(u) {
            let v = p.peer;
            if dist[v.0 as usize].is_none() {
                dist[v.0 as usize] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Shortest-path (ECMP) tables toward every host.
///
/// For each destination host, a reverse BFS labels every node with its
/// hop distance to the destination; every port leading strictly downhill
/// is an equal-cost next hop. Port order (and hence deterministic ECMP
/// choice) follows attachment order.
pub fn shortest_path_tables(topo: &Topology) -> ForwardingTables {
    let mut ft = ForwardingTables::empty(topo);
    for dst in topo.hosts().collect::<Vec<_>>() {
        let dist = bfs_distances(topo, dst);
        for node in topo.nodes() {
            if node.id == dst {
                continue;
            }
            let Some(du) = dist[node.id.0 as usize] else {
                continue;
            };
            let mut hops = Vec::new();
            for p in topo.ports(node.id) {
                if let Some(dv) = dist[p.peer.0 as usize] {
                    if dv + 1 == du {
                        hops.push(p.port);
                    }
                }
            }
            if !hops.is_empty() {
                ft.set(node.id, dst, hops);
            }
        }
    }
    ft
}

/// Up–down (valley-free) tables for tiered topologies: a packet travels
/// upward (increasing tier) zero or more hops, then downward only. This is
/// the classic deadlock-free routing for Clos/fat-trees (Stephens et al.).
///
/// # Panics
/// Panics if any switch lacks a tier.
pub fn up_down_tables(topo: &Topology) -> ForwardingTables {
    let n = topo.node_count();
    let tier = |id: NodeId| -> u8 {
        topo.node(id).tier.unwrap_or_else(|| {
            panic!(
                "up_down_tables requires tiers; {} has none",
                topo.node(id).name
            )
        })
    };
    let host_ids: Vec<NodeId> = topo.hosts().collect();
    let host_index: BTreeMap<NodeId, usize> =
        host_ids.iter().enumerate().map(|(i, &h)| (h, i)).collect();

    // down_reach[u] = set of hosts reachable from u moving strictly to
    // lower tiers. Represented as bitsets.
    let words = host_ids.len().div_ceil(64);
    let mut down_reach = vec![vec![0u64; words]; n];
    for (&h, &i) in &host_index {
        down_reach[h.0 as usize][i / 64] |= 1 << (i % 64);
    }
    // Process nodes in increasing tier order so lower tiers are final.
    let mut order: Vec<NodeId> = topo.nodes().iter().map(|nd| nd.id).collect();
    order.sort_by_key(|&id| tier(id));
    for &u in &order {
        if topo.node(u).kind == NodeKind::Host {
            continue;
        }
        for p in topo.ports(u).to_vec() {
            if tier(p.peer) < tier(u) {
                let (a, b) = (u.0 as usize, p.peer.0 as usize);
                // rv = down_reach[b] merged into down_reach[a]
                for w in 0..words {
                    let v = down_reach[b][w];
                    down_reach[a][w] |= v;
                }
            }
        }
    }
    // up_reach[u] = hosts reachable by first moving up (possibly zero hops)
    // then down. Process in decreasing tier order.
    let mut up_reach = down_reach.clone();
    for &u in order.iter().rev() {
        if topo.node(u).kind == NodeKind::Host {
            continue;
        }
        for p in topo.ports(u).to_vec() {
            if tier(p.peer) > tier(u) {
                let (a, b) = (u.0 as usize, p.peer.0 as usize);
                for w in 0..words {
                    let v = up_reach[b][w];
                    up_reach[a][w] |= v;
                }
            }
        }
    }

    let has = |set: &[u64], hi: usize| set[hi / 64] >> (hi % 64) & 1 == 1;
    let mut ft = ForwardingTables::empty(topo);
    for node in topo.nodes() {
        if node.kind == NodeKind::Host {
            continue;
        }
        for (&dst, &hi) in &host_index {
            if dst == node.id {
                continue;
            }
            let mut down_ports = Vec::new();
            let mut up_ports = Vec::new();
            for p in topo.ports(node.id) {
                if p.peer == dst {
                    down_ports.push(p.port);
                    continue;
                }
                if topo.node(p.peer).kind == NodeKind::Host {
                    continue;
                }
                if tier(p.peer) < tier(node.id) && has(&down_reach[p.peer.0 as usize], hi) {
                    down_ports.push(p.port);
                } else if tier(p.peer) > tier(node.id) && has(&up_reach[p.peer.0 as usize], hi) {
                    up_ports.push(p.port);
                }
            }
            // Valley-free preference: down if possible, else up.
            if !down_ports.is_empty() {
                ft.set(node.id, dst, down_ports);
            } else if !up_ports.is_empty() {
                ft.set(node.id, dst, up_ports);
            }
        }
    }
    ft
}

/// Install a static route that makes `dst`-bound packets circulate around
/// `cycle` (a list of adjacent switches). Every switch in the cycle
/// forwards toward the next one; the cycle must be closed by adjacency
/// between last and first.
///
/// Models the paper's misconfiguration/transient-loop triggers.
pub fn install_cycle_route(
    topo: &Topology,
    ft: &mut ForwardingTables,
    cycle: &[NodeId],
    dst: NodeId,
) {
    assert!(cycle.len() >= 2, "cycle needs at least two switches");
    for i in 0..cycle.len() {
        let cur = cycle[i];
        let next = cycle[(i + 1) % cycle.len()];
        let port = topo
            .port_towards(cur, next)
            .unwrap_or_else(|| panic!("cycle nodes {cur} and {next} are not adjacent"))
            .port;
        ft.set(cur, dst, vec![port]);
    }
}

/// Result of tracing a flow's path through the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trace {
    /// Reached the destination; nodes visited, inclusive of both hosts.
    Delivered(Vec<NodeId>),
    /// Exceeded `max_hops` — a forwarding loop; nodes visited so far.
    Looping(Vec<NodeId>),
    /// A node had no route to the destination; nodes visited so far.
    NoRoute(Vec<NodeId>),
}

impl Trace {
    /// The visited node sequence regardless of outcome.
    pub fn nodes(&self) -> &[NodeId] {
        match self {
            Trace::Delivered(v) | Trace::Looping(v) | Trace::NoRoute(v) => v,
        }
    }

    /// True iff delivery succeeded.
    pub fn delivered(&self) -> bool {
        matches!(self, Trace::Delivered(_))
    }
}

/// Trace the path flow `flow` takes from `src` to `dst` under `ft`,
/// following the deterministic ECMP choice, up to `max_hops` switch hops.
pub fn trace_path(
    topo: &Topology,
    ft: &ForwardingTables,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
) -> Trace {
    let mut visited = vec![src];
    // First hop: a host forwards everything to its switch.
    let mut cur = match topo.ports(src).first() {
        Some(p) => p.peer,
        None => return Trace::NoRoute(visited),
    };
    visited.push(cur);
    for _ in 0..max_hops {
        if cur == dst {
            return Trace::Delivered(visited);
        }
        let Some(port) = ft.select(cur, dst, flow) else {
            return Trace::NoRoute(visited);
        };
        let next = topo.ports(cur)[port.0 as usize].peer;
        visited.push(next);
        cur = next;
    }
    if cur == dst {
        Trace::Delivered(visited)
    } else {
        Trace::Looping(visited)
    }
}

/// A pinned (source-routed) path for a flow — the paper configures "static
/// routing on all switches so that flow paths are enforced".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinnedPath {
    /// The node sequence, host → … → host.
    pub nodes: Vec<NodeId>,
}

impl PinnedPath {
    /// Validate adjacency and endpoints against a topology.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.nodes.len() < 2 {
            return Err("path needs at least src and dst".into());
        }
        let first = *self.nodes.first().expect("nonempty");
        let last = *self.nodes.last().expect("nonempty");
        if topo.node(first).kind != NodeKind::Host {
            return Err(format!(
                "path must start at a host, got {}",
                topo.node(first).name
            ));
        }
        if topo.node(last).kind != NodeKind::Host {
            return Err(format!(
                "path must end at a host, got {}",
                topo.node(last).name
            ));
        }
        for w in self.nodes.windows(2) {
            if topo.port_towards(w[0], w[1]).is_none() {
                return Err(format!("{} and {} are not adjacent", w[0], w[1]));
            }
        }
        for &mid in &self.nodes[1..self.nodes.len() - 1] {
            if topo.node(mid).kind == NodeKind::Host {
                return Err("path transits a host".into());
            }
        }
        Ok(())
    }

    /// Number of switch-to-switch + host links traversed.
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The egress neighbor after `at`, if `at` is on the path (first match).
    pub fn next_after(&self, at: NodeId) -> Option<NodeId> {
        self.nodes.windows(2).find(|w| w[0] == at).map(|w| w[1])
    }
}

/// Average path stretch of `ft` relative to shortest paths, over all
/// host pairs (used to quantify the §2 cost of routing restriction).
/// Returns `(mean_stretch, max_stretch, unreachable_pairs)`.
pub fn path_stretch(topo: &Topology, ft: &ForwardingTables) -> (f64, f64, usize) {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let mut total = 0.0;
    let mut count = 0usize;
    let mut max = 0.0f64;
    let mut unreachable = 0usize;
    for &src in &hosts {
        let dist = bfs_distances(topo, src);
        for &dst in &hosts {
            if src == dst {
                continue;
            }
            let sp = match dist[dst.0 as usize] {
                Some(d) => d as f64,
                None => {
                    unreachable += 1;
                    continue;
                }
            };
            match trace_path(topo, ft, FlowId(count as u32), src, dst, 64) {
                Trace::Delivered(nodes) => {
                    let actual = (nodes.len() - 1) as f64;
                    let stretch = actual / sp;
                    total += stretch;
                    count += 1;
                    max = max.max(stretch);
                }
                _ => unreachable += 1,
            }
        }
    }
    if count == 0 {
        (0.0, 0.0, unreachable)
    } else {
        (total / count as f64, max, unreachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree, leaf_spine, line, square, two_switch_loop, LinkSpec};

    fn spec() -> LinkSpec {
        LinkSpec::default()
    }

    #[test]
    fn shortest_path_line_routes_both_ways() {
        let b = line(3, spec());
        let ft = shortest_path_tables(&b.topo);
        let t = trace_path(&b.topo, &ft, FlowId(0), b.hosts[0], b.hosts[2], 16);
        assert!(t.delivered());
        assert_eq!(
            t.nodes(),
            &[
                b.hosts[0],
                b.switches[0],
                b.switches[1],
                b.switches[2],
                b.hosts[2]
            ]
        );
        let back = trace_path(&b.topo, &ft, FlowId(1), b.hosts[2], b.hosts[0], 16);
        assert!(back.delivered());
    }

    #[test]
    fn shortest_path_all_pairs_deliver_in_fat_tree() {
        let b = fat_tree(4, spec());
        let ft = shortest_path_tables(&b.topo);
        let mut f = 0;
        for &s in &b.hosts {
            for &d in &b.hosts {
                if s == d {
                    continue;
                }
                let t = trace_path(&b.topo, &ft, FlowId(f), s, d, 16);
                assert!(t.delivered(), "{s}->{d} failed: {t:?}");
                f += 1;
            }
        }
    }

    #[test]
    fn up_down_paths_are_valley_free_in_fat_tree() {
        let b = fat_tree(4, spec());
        let ft = up_down_tables(&b.topo);
        let tier = |n: NodeId| b.topo.node(n).tier.unwrap();
        let mut f = 0;
        for &s in &b.hosts {
            for &d in &b.hosts {
                if s == d {
                    continue;
                }
                let t = trace_path(&b.topo, &ft, FlowId(f), s, d, 16);
                f += 1;
                assert!(t.delivered(), "{s}->{d}: {t:?}");
                // Tiers must rise then fall: no up-move after a down-move.
                let tiers: Vec<u8> = t.nodes().iter().map(|&n| tier(n)).collect();
                let mut went_down = false;
                for w in tiers.windows(2) {
                    if w[1] < w[0] {
                        went_down = true;
                    } else if w[1] > w[0] {
                        assert!(!went_down, "valley in path {:?}", tiers);
                    }
                }
            }
        }
    }

    #[test]
    fn up_down_same_tor_stays_local() {
        let b = leaf_spine(2, 2, 2, spec());
        let ft = up_down_tables(&b.topo);
        // hosts 0 and 1 share leaf0.
        let t = trace_path(&b.topo, &ft, FlowId(0), b.hosts[0], b.hosts[1], 8);
        assert!(t.delivered());
        assert_eq!(t.nodes().len(), 3, "host-leaf-host, no spine transit");
    }

    #[test]
    fn ecmp_spreads_and_is_deterministic() {
        let b = leaf_spine(2, 4, 1, spec());
        let ft = shortest_path_tables(&b.topo);
        let leaf = b.switches[0];
        let dst = b.hosts[1];
        assert_eq!(ft.next_hops(leaf, dst).len(), 4, "4-way ECMP over spines");
        let picks: Vec<_> = (0..64)
            .map(|i| ft.select(leaf, dst, FlowId(i)).unwrap())
            .collect();
        let distinct: std::collections::BTreeSet<_> = picks.iter().collect();
        assert!(
            distinct.len() >= 3,
            "hash should spread flows, got {distinct:?}"
        );
        let again: Vec<_> = (0..64)
            .map(|i| ft.select(leaf, dst, FlowId(i)).unwrap())
            .collect();
        assert_eq!(picks, again);
    }

    #[test]
    fn cycle_route_creates_detectable_loop() {
        let b = two_switch_loop(spec());
        let mut ft = shortest_path_tables(&b.topo);
        // Make hB-bound traffic circulate A->B->A->B...
        install_cycle_route(
            &b.topo,
            &mut ft,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let t = trace_path(&b.topo, &ft, FlowId(0), b.hosts[0], b.hosts[1], 32);
        assert!(matches!(t, Trace::Looping(_)));
        // Unrelated destination unaffected.
        let t2 = trace_path(&b.topo, &ft, FlowId(0), b.hosts[1], b.hosts[0], 32);
        assert!(t2.delivered());
    }

    #[test]
    fn removing_route_black_holes() {
        let b = line(2, spec());
        let mut ft = shortest_path_tables(&b.topo);
        ft.remove(b.switches[0], b.hosts[1]);
        let t = trace_path(&b.topo, &ft, FlowId(0), b.hosts[0], b.hosts[1], 8);
        assert!(matches!(t, Trace::NoRoute(_)));
    }

    #[test]
    fn pinned_path_validation() {
        let b = square(spec());
        let good = PinnedPath {
            nodes: vec![
                b.hosts[0],
                b.switches[0],
                b.switches[1],
                b.switches[2],
                b.hosts[2],
            ],
        };
        good.validate(&b.topo).unwrap();
        assert_eq!(good.hop_count(), 4);
        assert_eq!(good.next_after(b.switches[1]), Some(b.switches[2]));

        let bad = PinnedPath {
            nodes: vec![b.hosts[0], b.switches[0], b.switches[2], b.hosts[2]],
        };
        assert!(bad.validate(&b.topo).is_err(), "S0 and S2 are not adjacent");

        let not_host = PinnedPath {
            nodes: vec![b.switches[0], b.switches[1], b.hosts[1]],
        };
        assert!(not_host.validate(&b.topo).is_err());
    }

    #[test]
    fn path_stretch_identity_for_shortest() {
        let b = fat_tree(4, spec());
        let ft = shortest_path_tables(&b.topo);
        let (mean, max, unreachable) = path_stretch(&b.topo, &ft);
        assert_eq!(unreachable, 0);
        assert!((mean - 1.0).abs() < 1e-9, "mean stretch {mean}");
        assert!((max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bfs_distances_basic() {
        let b = line(3, spec());
        let d = bfs_distances(&b.topo, b.hosts[0]);
        assert_eq!(d[b.hosts[0].0 as usize], Some(0));
        assert_eq!(d[b.switches[0].0 as usize], Some(1));
        assert_eq!(d[b.switches[2].0 as usize], Some(3));
        assert_eq!(d[b.hosts[2].0 as usize], Some(4));
    }
}

//! Buffer dependency graphs (BDG) — the paper's analytic object, and the
//! one graph every deadlock verdict in the workspace is built on.
//!
//! Vertices are receiving (ingress) buffers `(switch, ingress port,
//! priority)`; a directed edge `q1 → q2` means packets held in `q1` are
//! forwarded into `q2`, i.e. *whether `q1` can drain depends on `q2`
//! having room* (paper §3.1: "Switch A's dependency on switch B means
//! whether switch A can move the packets in its receiving buffer RX1 to
//! egress depends on switch B's buffer RX1").
//!
//! A **cyclic buffer dependency (CBD)** — a cycle in this graph — is the
//! *necessary* condition for PFC deadlock (Dally & Seitz); the paper's
//! whole point is that it is not *sufficient*.
//!
//! [`BufferDependencyGraph::from_specs`] builds it per priority;
//! [`crate::serve::static_cbd`] and the static pre-check of a live run
//! build it with priorities merged ([`RxQueue::merged`]), a projection: a
//! cycle among per-priority buffers maps onto one among merged buffers.

mod cycles;
mod scc;

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use pfcsim_simcore::units::BitRate;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{NodeId, PortNo, Priority};
use pfcsim_topo::routing::ForwardingTables;

use crate::flow::FlowSpec;

pub use cycles::elementary_cycles;
pub use scc::{has_cycle, tarjan_scc};

/// Eq. 3: the TTL-expiry drain rate `r_d = n·B/TTL` of an `n`-switch
/// loop with link bandwidth `B` — the deadlock threshold on the injection
/// rate. Panics when `ttl` is zero.
pub fn deadlock_threshold(loop_len: u64, bandwidth: BitRate, ttl: u64) -> BitRate {
    bandwidth.scale(loop_len, ttl)
}

/// The one class every buffer of a priority-merged graph is given.
const MERGED: Priority = Priority(0);

/// One receiving buffer: the unit PFC pauses on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RxQueue {
    /// The switch owning the buffer.
    pub node: NodeId,
    /// The ingress port.
    pub port: PortNo,
    /// The traffic class.
    pub priority: Priority,
}

impl RxQueue {
    /// The buffer `(node, port)` with every priority merged into one
    /// vertex: the projection the static checks build their graphs in.
    pub fn merged(node: NodeId, port: PortNo) -> Self {
        RxQueue {
            node,
            port,
            priority: MERGED,
        }
    }
}

/// A buffer dependency graph.
#[derive(Debug, Clone, Default)]
pub struct BufferDependencyGraph {
    verts: Vec<RxQueue>,
    /// Node id → `(port, priority, dense index)` of its queues. A node has
    /// few, so a scan of its row finds one; [`Self::clear`] keeps the rows.
    index: Vec<Vec<(PortNo, Priority, usize)>>,
    /// Vertex → its targets, ascending: the adjacency every search reads
    /// ([`Self::adj`]). Lists past the last vertex are emptied ones that
    /// [`Self::clear`] kept, each for the next vertex of its index.
    edges: Vec<Vec<usize>>,
    /// Edge → `(least downstream rate, least TTL)`, for edges added by
    /// [`BufferDependencyGraph::add_rated_path`].
    labels: BTreeMap<(usize, usize), (BitRate, u8)>,
}

/// The scratch of [`BufferDependencyGraph::first_cycle`]'s depth-first
/// search, for a caller that searches graph after graph.
#[derive(Debug, Default)]
pub(crate) struct Dfs {
    /// Per vertex: 0 white, 1 gray, 2 black.
    color: Vec<u8>,
    /// `(vertex, next edge)` from the root to the gray frontier.
    stack: Vec<(usize, usize)>,
}

impl BufferDependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every queue and edge, keeping the allocations: a graph
    /// rebuilt after a `clear` allocates only where it outgrows the last.
    pub fn clear(&mut self) {
        for q in self.verts.drain(..) {
            self.index[q.node.0 as usize].clear();
        }
        self.labels.clear();
        self.edges.iter_mut().for_each(Vec::clear);
    }

    /// Intern a queue, returning its dense index.
    pub fn add_queue(&mut self, q: RxQueue) -> usize {
        if let Some(i) = self.find(q) {
            return i;
        }
        let node = q.node.0 as usize;
        if self.index.len() <= node {
            self.index.resize_with(node + 1, Vec::new);
        }
        let i = self.verts.len();
        self.index[node].push((q.port, q.priority, i));
        self.verts.push(q);
        if self.edges.len() == i {
            self.edges.push(Vec::new());
        }
        i
    }

    /// The dense index of `q`, if interned.
    fn find(&self, q: RxQueue) -> Option<usize> {
        let row = self.index.get(q.node.0 as usize)?;
        (row.iter()).find_map(|&(port, priority, i)| {
            (port == q.port && priority == q.priority).then_some(i)
        })
    }

    /// The adjacency lists of the graph's vertices.
    fn adj(&self) -> &[Vec<usize>] {
        &self.edges[..self.verts.len()]
    }

    /// Add a dependency edge, returning the indices of its two ends.
    pub fn add_dependency(&mut self, from: RxQueue, to: RxQueue) -> (usize, usize) {
        let f = self.add_queue(from);
        let t = self.add_queue(to);
        if let Err(at) = self.edges[f].binary_search(&t) {
            self.edges[f].insert(at, t);
        }
        (f, t)
    }

    /// All queues.
    pub fn queues(&self) -> &[RxQueue] {
        &self.verts
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True iff no queues recorded.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.adj().iter().map(Vec::len).sum()
    }

    /// Direct dependencies of `q`.
    pub fn dependencies_of(&self, q: RxQueue) -> Vec<RxQueue> {
        match self.find(q) {
            Some(i) => self.edges[i].iter().map(|&j| self.verts[j]).collect(),
            None => Vec::new(),
        }
    }

    /// Does a cyclic buffer dependency exist?
    pub fn has_cbd(&self) -> bool {
        has_cycle(self.adj())
    }

    /// Strongly connected components with more than one queue (the CBD
    /// cores).
    pub fn cbd_components(&self) -> Vec<Vec<RxQueue>> {
        tarjan_scc(self.adj())
            .into_iter()
            .filter(|c| c.len() > 1)
            .map(|c| c.into_iter().map(|i| self.verts[i]).collect())
            .collect()
    }

    /// Up to `limit` elementary dependency cycles (the Figs. 2(b)/3(b)
    /// rings).
    pub fn cbd_cycles(&self, limit: usize) -> Vec<Vec<RxQueue>> {
        elementary_cycles(self.adj(), limit)
            .into_iter()
            .map(|c| c.into_iter().map(|i| self.verts[i]).collect())
            .collect()
    }

    /// Queues participating in at least one cycle.
    pub fn cyclic_queues(&self) -> BTreeSet<RxQueue> {
        self.cbd_components().into_iter().flatten().collect()
    }

    /// The first cycle an iterative three-colour DFS meets, starting from
    /// vertices in insertion order: the back edge closes it as a suffix of
    /// the explicit stack, listed in dependency order.
    pub fn first_cycle(&self) -> Option<Vec<RxQueue>> {
        let mut dfs = Dfs::default();
        let cycle = self.first_cycle_in(&mut dfs)?;
        Some(cycle.iter().map(|&(x, _)| self.verts[x]).collect())
    }

    /// [`Self::first_cycle`] on `dfs`'s scratch, which it allocates into
    /// only where this graph outgrows the last one searched: the cycle as
    /// the stack suffix it closes, `(vertex, next edge)` pairs.
    pub(crate) fn first_cycle_in<'d>(&self, dfs: &'d mut Dfs) -> Option<&'d [(usize, usize)]> {
        let adj = self.adj();
        let Dfs { color, stack } = dfs;
        color.clear();
        color.resize(adj.len(), 0);
        for s in 0..adj.len() {
            if color[s] != 0 {
                continue;
            }
            stack.clear();
            stack.push((s, 0));
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
                        return Some(&stack[pos..]);
                    }
                } else {
                    color[v] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    /// The least `(rate, TTL)` label over the edges of `cycle` (closing
    /// edge included); `None` when one of them is missing or unlabelled.
    pub fn cycle_label(&self, cycle: &[RxQueue]) -> Option<(BitRate, u8)> {
        let mut least: Option<(BitRate, u8)> = None;
        for (k, q) in cycle.iter().enumerate() {
            let u = self.find(*q)?;
            let v = self.find(cycle[(k + 1) % cycle.len()])?;
            let &(rate, ttl) = self.labels.get(&(u, v))?;
            least = Some(least.map_or((rate, ttl), |(r, t)| (r.min(rate), t.min(ttl))));
        }
        least
    }

    /// Build from explicit node paths (host → switches… → host), one per
    /// flow, with per-flow priority. `class_ladder` applies the
    /// structured-buffer-pool remap (class = min(hop, n−1)).
    pub fn from_paths<'a>(
        topo: &Topology,
        paths: impl IntoIterator<Item = (&'a [NodeId], Priority)>,
        class_ladder: Option<u8>,
    ) -> Self {
        let mut g = Self::new();
        for (nodes, prio) in paths {
            g.add_path(topo, nodes, prio, class_ladder);
        }
        g
    }

    /// Add one flow path's dependencies.
    pub fn add_path(
        &mut self,
        topo: &Topology,
        nodes: &[NodeId],
        prio: Priority,
        class_ladder: Option<u8>,
    ) {
        let class = |hop: u8| match class_ladder {
            Some(n) => Priority(hop.min(n - 1)),
            None => prio,
        };
        self.add_route(topo, nodes, class, None);
    }

    /// Add one flow path's dependencies with priorities merged, each edge
    /// labelled with the rate of the link into its downstream buffer and
    /// the flow's `ttl` (Eq. 3's inputs, see [`Self::cycle_label`]).
    pub fn add_rated_path(&mut self, topo: &Topology, nodes: &[NodeId], ttl: u8) {
        self.add_route(topo, nodes, |_| MERGED, Some(ttl));
    }

    /// Add the buffer each switch of `nodes` receives the path's traffic
    /// into, classed by switch-hop index, and an edge from each buffer to
    /// the next one its switch feeds (a host between two switches forwards
    /// nothing, so it ends the chain); with `ttl`, label the edges.
    fn add_route(
        &mut self,
        topo: &Topology,
        nodes: &[NodeId],
        class: impl Fn(u8) -> Priority,
        ttl: Option<u8>,
    ) {
        let mut prev: Option<RxQueue> = None;
        let mut hop: u8 = 0;
        for w in nodes.windows(2) {
            let (from, to) = (w[0], w[1]);
            if topo.node(to).kind != NodeKind::Switch {
                continue; // final host hop has no PFC ingress of interest
            }
            let ingress = topo
                .port_towards(to, from)
                .unwrap_or_else(|| panic!("{from} and {to} are not adjacent"));
            let q = RxQueue {
                node: to,
                port: ingress.port,
                priority: class(hop),
            };
            if let Some(u) = prev.filter(|u| u.node == from) {
                let edge = self.add_dependency(u, q);
                if let Some(ttl) = ttl {
                    let rate = topo.link(ingress.link).rate;
                    let least = self.labels.entry(edge).or_insert((rate, ttl));
                    *least = (least.0.min(rate), least.1.min(ttl));
                }
            }
            prev = Some(q);
            hop = hop.saturating_add(1);
        }
        // Register single-switch paths too (a labelled graph holds only
        // the buffers its edges join).
        if let (1, Some(q), None) = (hop, prev, ttl) {
            self.add_queue(q);
        }
    }

    /// Build by tracing `specs` through `tables` (pinned flows use their
    /// pinned path; table flows are traced with a hop cap of their TTL, so
    /// a routing loop contributes one full ring of dependencies).
    pub fn from_specs(topo: &Topology, tables: &ForwardingTables, specs: &[FlowSpec]) -> Self {
        let mut g = Self::new();
        for spec in specs {
            let path = spec.path(topo, tables, spec.ttl as usize);
            g.add_path(topo, path.nodes(), spec.priority, None);
        }
        g
    }

    /// Graphviz DOT rendering: queues as nodes (named via `label`,
    /// typically the switch's human name), cyclic queues highlighted.
    pub fn to_dot(&self, label: impl Fn(&RxQueue) -> String) -> String {
        let cyclic = self.cyclic_queues();
        let mut out = String::from("digraph bdg {\n  rankdir=LR;\n");
        for (i, q) in self.verts.iter().enumerate() {
            let style = if cyclic.contains(q) {
                " style=filled fillcolor=salmon"
            } else {
                ""
            };
            out.push_str(&format!("  q{i} [label=\"{}\"{style}];\n", label(q)));
        }
        for (i, outs) in self.adj().iter().enumerate() {
            for &j in outs {
                out.push_str(&format!("  q{i} -> q{j};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{fat_tree, line, square, two_switch_loop, LinkSpec};
    use pfcsim_topo::routing::{install_cycle_route, shortest_path_tables, up_down_tables};

    fn prio() -> Priority {
        Priority::DEFAULT
    }

    #[test]
    fn line_path_is_acyclic_chain() {
        let b = line(3, LinkSpec::default());
        let path = [
            b.hosts[0],
            b.switches[0],
            b.switches[1],
            b.switches[2],
            b.hosts[2],
        ];
        let g = BufferDependencyGraph::from_paths(&b.topo, [(path.as_slice(), prio())], None);
        assert_eq!(g.len(), 3, "one RX per switch");
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_cbd());
        assert!(g.cbd_components().is_empty());
    }

    #[test]
    fn square_two_flows_form_the_fig3b_cycle() {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let f1 = [h[0], s[0], s[1], s[2], s[3], h[3]];
        let f2 = [h[2], s[2], s[3], s[0], s[1], h[1]];
        let g = BufferDependencyGraph::from_paths(
            &b.topo,
            [(f1.as_slice(), prio()), (f2.as_slice(), prio())],
            None,
        );
        assert!(g.has_cbd(), "Fig. 3(b): cyclic buffer dependency exists");
        let cycles = g.cbd_cycles(10);
        assert_eq!(cycles.len(), 1, "exactly the 4-ring");
        assert_eq!(cycles[0].len(), 4);
        let nodes: BTreeSet<NodeId> = cycles[0].iter().map(|q| q.node).collect();
        assert_eq!(nodes, s.iter().copied().collect());
    }

    #[test]
    fn fig4_extra_flow_leaves_cycle_unchanged() {
        // Paper: "one additional dependency ... is added, but it is outside
        // the cyclic buffer dependency. The cyclic buffer dependency itself
        // remains unchanged."
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let f1 = [h[0], s[0], s[1], s[2], s[3], h[3]];
        let f2 = [h[2], s[2], s[3], s[0], s[1], h[1]];
        let f3 = [h[1], s[1], s[2], h[2]];
        let g2 = BufferDependencyGraph::from_paths(
            &b.topo,
            [(f1.as_slice(), prio()), (f2.as_slice(), prio())],
            None,
        );
        let g3 = BufferDependencyGraph::from_paths(
            &b.topo,
            [
                (f1.as_slice(), prio()),
                (f2.as_slice(), prio()),
                (f3.as_slice(), prio()),
            ],
            None,
        );
        assert_eq!(g3.cbd_cycles(10), g2.cbd_cycles(10), "same single cycle");
        assert_eq!(g3.edge_count(), g2.edge_count() + 1, "one extra edge");
    }

    #[test]
    fn routing_loop_creates_two_queue_cycle() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let spec = FlowSpec::cbr(
            0,
            b.hosts[0],
            b.hosts[1],
            pfcsim_simcore::units::BitRate::from_gbps(1),
        )
        .with_ttl(16);
        let g = BufferDependencyGraph::from_specs(&b.topo, &tables, &[spec]);
        assert!(g.has_cbd(), "Fig. 2(b)");
        let cycles = g.cbd_cycles(10);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2, "A<->B two-ring");
    }

    #[test]
    fn up_down_fat_tree_is_cbd_free_over_all_pairs() {
        let b = fat_tree(4, LinkSpec::default());
        let tables = up_down_tables(&b.topo);
        let mut specs = Vec::new();
        let mut id = 0;
        for &s in &b.hosts {
            for &d in &b.hosts {
                if s != d {
                    specs.push(FlowSpec::infinite(id, s, d));
                    id += 1;
                }
            }
        }
        let g = BufferDependencyGraph::from_specs(&b.topo, &tables, &specs);
        assert!(!g.has_cbd(), "valley-free routing must be deadlock-free");
        assert!(g.len() > 50, "plenty of queues involved: {}", g.len());
    }

    #[test]
    fn class_ladder_breaks_the_square_cycle() {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let f1 = [h[0], s[0], s[1], s[2], s[3], h[3]];
        let f2 = [h[2], s[2], s[3], s[0], s[1], h[1]];
        // 4 classes >= max hop count (4 switch hops): provably acyclic.
        let g = BufferDependencyGraph::from_paths(
            &b.topo,
            [(f1.as_slice(), prio()), (f2.as_slice(), prio())],
            Some(4),
        );
        assert!(!g.has_cbd(), "hop-laddered classes climb, never cycle");
        // 1 class = no ladder: cycle returns.
        let g1 = BufferDependencyGraph::from_paths(
            &b.topo,
            [(f1.as_slice(), prio()), (f2.as_slice(), prio())],
            Some(1),
        );
        assert!(g1.has_cbd());
    }

    #[test]
    fn insufficient_ladder_classes_leave_cycles() {
        // 8-switch ring; four flows, each spanning five switches and
        // overlapping the next by two, so their RX chains hand over and
        // wrap the ring (the generalisation of Fig. 3's construction).
        use pfcsim_topo::builders::ring;
        let b = ring(8, LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let paths: Vec<Vec<NodeId>> = (0..4)
            .map(|i| {
                let base = 2 * i;
                let mut p = vec![h[base]];
                for k in 0..5 {
                    p.push(s[(base + k) % 8]);
                }
                p.push(h[(base + 4) % 8]);
                p
            })
            .collect();
        let with_ladder = |ladder: Option<u8>| {
            BufferDependencyGraph::from_paths(
                &b.topo,
                paths.iter().map(|p| (p.as_slice(), prio())),
                ladder,
            )
        };
        assert!(with_ladder(None).has_cbd(), "flat classes: full ring CBD");
        assert!(
            !with_ladder(Some(4)).has_cbd(),
            "4 classes cover the 4 RX hops of each path: acyclic"
        );
        assert!(
            with_ladder(Some(2)).has_cbd(),
            "2 classes saturate at class 1, which still wraps the ring"
        );
    }

    #[test]
    fn dot_export_marks_cycles() {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let f1 = [h[0], s[0], s[1], s[2], s[3], h[3]];
        let f2 = [h[2], s[2], s[3], s[0], s[1], h[1]];
        let g = BufferDependencyGraph::from_paths(
            &b.topo,
            [(f1.as_slice(), prio()), (f2.as_slice(), prio())],
            None,
        );
        let dot = g.to_dot(|q| b.topo.node(q.node).name.clone());
        assert!(dot.starts_with("digraph bdg {"));
        assert_eq!(dot.matches("->").count(), g.edge_count());
        // The four cyclic queues are highlighted.
        assert_eq!(dot.matches("salmon").count(), 4);
        assert!(dot.contains("label=\"S0\""));
    }

    #[test]
    fn dependencies_of_reports_direct_edges() {
        let b = line(2, LinkSpec::default());
        let path = [b.hosts[0], b.switches[0], b.switches[1], b.hosts[1]];
        let g = BufferDependencyGraph::from_paths(&b.topo, [(path.as_slice(), prio())], None);
        let q0 = RxQueue {
            node: b.switches[0],
            port: b.topo.port_towards(b.switches[0], b.hosts[0]).unwrap().port,
            priority: prio(),
        };
        let deps = g.dependencies_of(q0);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].node, b.switches[1]);
        assert!(g
            .dependencies_of(RxQueue {
                node: b.switches[1],
                port: PortNo(99),
                priority: prio()
            })
            .is_empty());
    }

    /// A randomised simple path `src → switches… → dst`: a DFS over
    /// switches in shuffled neighbour order.
    fn random_simple_path(
        topo: &Topology,
        rng: &mut pfcsim_simcore::rng::SimRng,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<NodeId> {
        let mut peers = |n: NodeId| {
            let mut v: Vec<NodeId> = (topo.ports(n).iter().map(|p| p.peer))
                .filter(|&p| topo.node(p).kind == NodeKind::Switch)
                .collect();
            rng.shuffle(&mut v);
            v
        };
        let (first, last) = (topo.ports(src)[0].peer, topo.ports(dst)[0].peer);
        let mut path = vec![first];
        let mut frontier = vec![peers(first)];
        while path.last() != Some(&last) {
            let top = frontier.last_mut().expect("connected topology");
            match top.pop() {
                Some(n) if !path.contains(&n) => {
                    path.push(n);
                    frontier.push(peers(n));
                }
                Some(_) => {}
                None => {
                    frontier.pop();
                    path.pop();
                }
            }
        }
        [vec![src], path, vec![dst]].concat()
    }

    /// The route rule, decided once: on seeded random tables — ECMP sets
    /// over any ports, an installed 2- or 4-switch loop — and flows pinned
    /// along random simple paths or table-routed at random priorities and
    /// TTLs, every `FlowSpec::path` is the walk the datapath's `next_hop`
    /// takes, at both hop caps in use. And the per-priority, TTL-capped
    /// graph projects into the priority-merged one `static_cbd` builds: a
    /// cycle in the first is one in the second.
    #[test]
    fn flow_paths_follow_the_datapath_and_project_onto_the_merged_graph() {
        use crate::serve::static_cbd;
        use crate::sim::SimBuilder;
        use pfcsim_simcore::rng::SimRng;
        use pfcsim_simcore::time::SimTime;
        use pfcsim_topo::builders::{leaf_spine, ring};

        let mut rng = SimRng::new(9);
        let (mut pinned, mut cyclic) = (0, 0);
        let spec = LinkSpec::default();
        for built in [
            ring(5, spec),
            square(spec),
            leaf_spine(3, 2, 2, spec),
            fat_tree(4, spec),
        ] {
            let (topo, hosts, switches) = (&built.topo, &built.hosts, &built.switches);
            let switch_peers = |n: NodeId| -> Vec<NodeId> {
                (topo.ports(n).iter().map(|p| p.peer))
                    .filter(|&p| topo.node(p).kind == NodeKind::Switch)
                    .collect()
            };
            let wide = 4 * topo.node_count() + 8;
            for _ in 0..40 {
                let pick = |rng: &mut SimRng, from: &[NodeId]| {
                    from[rng.gen_range(from.len() as u64) as usize]
                };
                let mut tables = shortest_path_tables(topo);
                for _ in 0..rng.gen_range(4) {
                    let (sw, dst) = (pick(&mut rng, switches), pick(&mut rng, hosts));
                    let mut ports: Vec<PortNo> = topo.ports(sw).iter().map(|p| p.port).collect();
                    rng.shuffle(&mut ports);
                    ports.truncate(1 + rng.gen_range(3) as usize);
                    tables.set(sw, dst, ports);
                }
                if rng.gen_bool(0.6) {
                    let u = pick(&mut rng, switches);
                    let v = pick(&mut rng, &switch_peers(u));
                    let square_at =
                        (switch_peers(v).into_iter())
                            .filter(|&w| w != u)
                            .find_map(|w| {
                                (switch_peers(w).into_iter())
                                    .find(|&x| x != v && switch_peers(x).contains(&u))
                                    .map(|x| vec![u, v, w, x])
                            });
                    let cycle = square_at.unwrap_or(vec![u, v]);
                    install_cycle_route(topo, &mut tables, &cycle, pick(&mut rng, hosts));
                }
                let mut specs = Vec::new();
                for id in 0..1 + rng.gen_range(5) as u32 {
                    let (src, dst) = (pick(&mut rng, hosts), pick(&mut rng, hosts));
                    if src == dst {
                        continue;
                    }
                    let ttl = switches.len() as u64 + rng.gen_range(48);
                    let mut f = FlowSpec::infinite(id, src, dst)
                        .with_priority(Priority(rng.gen_range(8) as u8))
                        .with_ttl(if rng.gen_bool(0.1) { 255 } else { ttl as u8 });
                    if rng.gen_bool(0.4) {
                        f = f.pinned(random_simple_path(topo, &mut rng, src, dst));
                        pinned += 1;
                    }
                    specs.push(f);
                }
                let mut sim = SimBuilder::new(topo).tables(tables.clone()).build();
                for f in &specs {
                    sim.try_add_flow(f.clone()).expect("a valid flow");
                }
                for f in &specs {
                    for cap in [f.ttl as usize, wide] {
                        let mut walk = vec![f.src, topo.ports(f.src)[0].peer];
                        for _ in 0..cap {
                            let cur = *walk.last().expect("non-empty");
                            if cur == f.dst {
                                break;
                            }
                            let Some(e) = sim.dp.next_hop(&tables, f.id, cur, f.dst) else {
                                break;
                            };
                            walk.push(topo.ports(cur)[e.0 as usize].peer);
                        }
                        let path = f.path(topo, &tables, cap);
                        assert_eq!(path.nodes(), walk, "{f:?} capped at {cap}");
                    }
                }
                let per_priority = BufferDependencyGraph::from_specs(topo, &tables, &specs);
                if per_priority.has_cbd() {
                    cyclic += 1;
                    let merged = static_cbd(topo, &tables, &specs, SimTime::ZERO);
                    assert!(merged.cbd, "{specs:?}");
                }
            }
        }
        assert!(
            pinned >= 40 && cyclic >= 20,
            "{pinned} pinned flows, {cyclic} cyclic cases"
        );
    }
}

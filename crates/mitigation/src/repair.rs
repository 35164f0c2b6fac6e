//! CBD repair by selective re-pathing.
//!
//! Given a workload whose buffer dependency graph is cyclic, find a small
//! set of flows to re-path (onto alternate simple paths in the topology)
//! such that the resulting BDG is acyclic — routing restriction applied
//! *surgically* to the flows that need it, instead of restricting the
//! whole network. Greedy: while a cycle exists, take one witness cycle,
//! try each contributing flow in order, and re-path it along its best
//! alternate path whose dependencies don't re-close a cycle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use pfcsim_core::bdg::{BufferDependencyGraph, RxQueue};
use pfcsim_net::flow::{FlowSpec, RouteKind};
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, NodeId};
use pfcsim_topo::routing::{path_hops, ForwardingTables, PinnedPath};

/// One re-path directive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Repath {
    /// The flow to move.
    pub flow: FlowId,
    /// Its original switch-hop count.
    pub old_hops: usize,
    /// The new pinned path (host → … → host).
    pub new_path: Vec<NodeId>,
}

/// Result of a repair attempt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// Flows to re-path, in application order.
    pub repaths: Vec<Repath>,
}

impl RepairPlan {
    /// Apply to the specs: re-pathed flows become pinned to their new path.
    pub fn apply(&self, specs: &mut [FlowSpec]) {
        for r in &self.repaths {
            if let Some(spec) = specs.iter_mut().find(|s| s.id == r.flow) {
                spec.route = RouteKind::Pinned(PinnedPath {
                    nodes: r.new_path.clone(),
                });
            }
        }
    }

    /// Total extra switch hops introduced.
    pub fn added_hops(&self) -> usize {
        self.repaths
            .iter()
            .map(|r| {
                let new_hops = r.new_path.len().saturating_sub(2);
                new_hops.saturating_sub(r.old_hops)
            })
            .sum()
    }
}

/// Repair failed: no acyclic re-pathing was found greedily.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairFailed {
    /// A cycle that could not be broken.
    pub stuck_cycle: Vec<RxQueue>,
}

/// The current node path of a flow under the tables.
fn path_of(topo: &Topology, tables: &ForwardingTables, spec: &FlowSpec) -> Vec<NodeId> {
    let peers = spec.hops(topo, tables, 64).map(|(_, out)| out.peer);
    std::iter::once(spec.src).chain(peers).collect()
}

/// Enumerate up to `limit` simple host-to-host paths between two hosts,
/// shortest first (BFS over partial simple paths).
fn alternate_paths(topo: &Topology, src: NodeId, dst: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut q: VecDeque<Vec<NodeId>> = VecDeque::from([vec![src]]);
    // Cap the frontier to keep this bounded on dense graphs.
    let mut expansions = 0usize;
    while let Some(path) = q.pop_front() {
        if out.len() >= limit || expansions > 50_000 {
            break;
        }
        expansions += 1;
        let last = *path.last().expect("nonempty");
        if last == dst {
            out.push(path);
            continue;
        }
        // Hosts other than src/dst cannot be transited.
        if topo.node(last).kind == NodeKind::Host && path.len() > 1 {
            continue;
        }
        for p in topo.ports(last) {
            let next = p.peer;
            if path.contains(&next) {
                continue;
            }
            if topo.node(next).kind == NodeKind::Host && next != dst {
                continue;
            }
            if path.len() > 10 {
                continue; // bound path length
            }
            let mut np = path.clone();
            np.push(next);
            q.push_back(np);
        }
    }
    out
}

/// Compute a repair plan for the workload, or fail with a stuck cycle.
pub fn plan_repair(
    topo: &Topology,
    tables: &ForwardingTables,
    specs: &[FlowSpec],
) -> Result<RepairPlan, RepairFailed> {
    // Working copy of flow paths.
    let mut paths: BTreeMap<FlowId, Vec<NodeId>> = specs
        .iter()
        .map(|s| (s.id, path_of(topo, tables, s)))
        .collect();
    let build = |paths: &BTreeMap<FlowId, Vec<NodeId>>, specs: &[FlowSpec]| {
        let mut g = BufferDependencyGraph::new();
        for s in specs {
            g.add_path(topo, path_hops(topo, &paths[&s.id]), s.priority, None);
        }
        g
    };
    let mut repaths = Vec::new();
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard <= 64, "repair did not converge");
        let g = build(&paths, specs);
        let Some(cycle) = g.cbd_cycles(1).into_iter().next() else {
            return Ok(RepairPlan { repaths });
        };
        let cycle_queues: BTreeSet<RxQueue> = cycle.iter().copied().collect();
        // Flows whose current path touches the cycle, longest first (they
        // contribute the most dependencies).
        let mut candidates: Vec<FlowId> = specs
            .iter()
            .filter(|s| {
                path_hops(topo, &paths[&s.id]).any(|(_, out)| {
                    cycle_queues.contains(&RxQueue {
                        node: out.peer,
                        port: out.peer_port,
                        priority: s.priority,
                    })
                })
            })
            .map(|s| s.id)
            .collect();
        candidates.sort_by_key(|f| std::cmp::Reverse(paths[f].len()));

        let mut fixed = false;
        'cands: for flow in candidates {
            let spec = specs.iter().find(|s| s.id == flow).expect("known flow");
            let old = paths[&flow].clone();
            for alt in alternate_paths(topo, spec.src, spec.dst, 12) {
                if alt == old {
                    continue;
                }
                let mut trial = paths.clone();
                trial.insert(flow, alt.clone());
                if !build(&trial, specs).has_cbd() {
                    repaths.push(Repath {
                        flow,
                        old_hops: old.len().saturating_sub(2),
                        new_path: alt,
                    });
                    paths = trial;
                    fixed = true;
                    break 'cands;
                }
            }
        }
        if !fixed {
            // Also try the weaker goal: break just this cycle (progress),
            // even if another remains.
            'cands2: for &flow in paths.keys().collect::<Vec<_>>().iter() {
                let spec = specs.iter().find(|s| s.id == *flow).expect("known");
                let old = paths[flow].clone();
                for alt in alternate_paths(topo, spec.src, spec.dst, 12) {
                    if alt == old {
                        continue;
                    }
                    let mut trial = paths.clone();
                    trial.insert(*flow, alt.clone());
                    let g2 = build(&trial, specs);
                    let still_this_cycle = g2.cbd_cycles(8).iter().any(|c| {
                        c.iter().collect::<BTreeSet<_>>() == cycle.iter().collect::<BTreeSet<_>>()
                    });
                    if !still_this_cycle
                        && g2.cbd_cycles(8).len() < build(&paths, specs).cbd_cycles(8).len()
                    {
                        repaths.push(Repath {
                            flow: *flow,
                            old_hops: old.len().saturating_sub(2),
                            new_path: alt,
                        });
                        paths = trial;
                        fixed = true;
                        break 'cands2;
                    }
                }
            }
        }
        if !fixed {
            return Err(RepairFailed { stuck_cycle: cycle });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_core::freedom::verify_workload;
    use pfcsim_topo::builders::{square, LinkSpec};

    fn fig4_specs(b: &pfcsim_topo::builders::Built) -> Vec<FlowSpec> {
        let (s, h) = (&b.switches, &b.hosts);
        vec![
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
            FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]),
        ]
    }

    #[test]
    fn repairs_fig4_with_one_repath() {
        let b = square(LinkSpec::default());
        let tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        let mut specs = fig4_specs(&b);
        assert!(
            verify_workload(&b.topo, &tables, &specs).is_err(),
            "starts cyclic"
        );
        let plan = plan_repair(&b.topo, &tables, &specs).expect("repairable");
        assert!(!plan.repaths.is_empty());
        assert!(plan.repaths.len() <= 2, "the square needs few repaths");
        plan.apply(&mut specs);
        verify_workload(&b.topo, &tables, &specs).expect("acyclic after repair");
    }

    #[test]
    fn repaired_fig4_does_not_deadlock_in_simulation() {
        use pfcsim_net::config::SimConfig;
        use pfcsim_net::sim::SimBuilder;
        use pfcsim_simcore::time::SimTime;
        let b = square(LinkSpec::default());
        let tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        let mut specs = fig4_specs(&b);
        let plan = plan_repair(&b.topo, &tables, &specs).expect("repairable");
        plan.apply(&mut specs);
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables)
            .build();
        for f in specs {
            sim.add_flow(f);
        }
        let report = sim.run(SimTime::from_ms(8));
        assert!(!report.verdict.is_deadlock(), "repair must hold at runtime");
    }

    #[test]
    fn acyclic_workload_needs_no_repair() {
        let b = square(LinkSpec::default());
        let tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        let specs = vec![FlowSpec::infinite(0, b.hosts[0], b.hosts[1])];
        let plan = plan_repair(&b.topo, &tables, &specs).expect("already fine");
        assert!(plan.repaths.is_empty());
        assert_eq!(plan.added_hops(), 0);
    }

    #[test]
    fn alternate_paths_are_simple_and_shortest_first() {
        let b = square(LinkSpec::default());
        let paths = alternate_paths(&b.topo, b.hosts[0], b.hosts[2], 8);
        assert!(paths.len() >= 2, "square has two host0->host2 routes");
        // Sorted by length (BFS order).
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        for p in &paths {
            let set: BTreeSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len(), "simple paths only");
        }
    }
}

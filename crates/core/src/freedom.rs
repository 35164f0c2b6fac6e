//! Deadlock-freedom verification (the *necessary*-condition machinery).
//!
//! Dally & Seitz: a routing function is deadlock-free iff its channel
//! (buffer) dependency graph is acyclic. This module checks that property
//! for a concrete (topology, tables, workload) and for the all-pairs
//! closure of the tables — the guarantee that "deadlock-free routing"
//! schemes like up–down claim, and that misconfiguration silently breaks.

use pfcsim_net::flow::FlowSpec;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, NodeId, Priority};
use pfcsim_topo::routing::{trace_path, ForwardingTables, Trace};

use crate::bdg::{BufferDependencyGraph, RxQueue};

/// Why a routing configuration is not (provably) deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreedomViolation {
    /// A cyclic buffer dependency exists; one witness cycle attached.
    CyclicDependency(Vec<RxQueue>),
    /// A destination is unreachable from a source under the tables.
    Unroutable {
        /// Source host.
        src: NodeId,
        /// Destination host.
        dst: NodeId,
    },
    /// A forwarding loop exists (trace exceeded the hop cap).
    ForwardingLoop {
        /// Source host.
        src: NodeId,
        /// Destination host.
        dst: NodeId,
    },
}

/// Verify that the given workload (set of flows) cannot deadlock under
/// `tables`: its buffer dependency graph must be acyclic.
pub fn verify_workload(
    topo: &Topology,
    tables: &ForwardingTables,
    specs: &[FlowSpec],
) -> Result<(), FreedomViolation> {
    let g = BufferDependencyGraph::from_specs(topo, tables, specs);
    if g.has_cbd() {
        let cycle = g.cbd_cycles(1).into_iter().next().expect("cbd has a cycle");
        return Err(FreedomViolation::CyclicDependency(cycle));
    }
    Ok(())
}

/// Verify the tables are deadlock-free for *any* traffic matrix: build the
/// dependency graph over every host pair (every flow any tenant could
/// start) and check acyclicity. Also reports unroutable pairs and
/// forwarding loops.
pub fn verify_all_pairs(
    topo: &Topology,
    tables: &ForwardingTables,
    priority: Priority,
) -> Result<(), FreedomViolation> {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let max_hops = 4 * topo.node_count().max(16);
    let mut g = BufferDependencyGraph::new();
    let (mut flow, mut hops) = (0u32, Vec::new());
    for &src in &hosts {
        for &dst in &hosts {
            if src == dst {
                continue;
            }
            let spec = FlowSpec::infinite(flow, src, dst);
            flow += 1;
            hops.clear();
            hops.extend(spec.hops(topo, tables, max_hops));
            match Trace::of(src, dst, max_hops, hops.iter().copied()) {
                Trace::Delivered(_) => g.add_path(topo, hops.iter().copied(), priority, None),
                Trace::NoRoute(_) => return Err(FreedomViolation::Unroutable { src, dst }),
                Trace::Looping(_) => return Err(FreedomViolation::ForwardingLoop { src, dst }),
            }
        }
    }
    if g.has_cbd() {
        let cycle = g.cbd_cycles(1).into_iter().next().expect("cbd has a cycle");
        return Err(FreedomViolation::CyclicDependency(cycle));
    }
    Ok(())
}

/// Check that every all-pairs path under `tables` is valley-free
/// (up moves never follow a down move). Requires tiers on all switches.
pub fn verify_valley_free(
    topo: &Topology,
    tables: &ForwardingTables,
) -> Result<(), (NodeId, NodeId)> {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let tier = |n: NodeId| topo.node(n).tier.unwrap_or(0);
    let mut flow = 0u32;
    for &src in &hosts {
        for &dst in &hosts {
            if src == dst {
                continue;
            }
            let trace = trace_path(topo, tables, FlowId(flow), src, dst, 64);
            flow += 1;
            let Trace::Delivered(nodes) = trace else {
                return Err((src, dst));
            };
            let mut went_down = false;
            for w in nodes.windows(2) {
                if topo.node(w[0]).kind == NodeKind::Host || topo.node(w[1]).kind == NodeKind::Host
                {
                    continue;
                }
                if tier(w[1]) < tier(w[0]) {
                    went_down = true;
                } else if tier(w[1]) > tier(w[0]) && went_down {
                    return Err((src, dst));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_net::flow::FlowSpec;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{fat_tree, leaf_spine, square, two_switch_loop, LinkSpec};
    use pfcsim_topo::routing::{install_cycle_route, shortest_path_tables, up_down_tables};

    #[test]
    fn up_down_fat_tree_verifies_clean() {
        let b = fat_tree(4, LinkSpec::default());
        let tables = up_down_tables(&b.topo);
        verify_all_pairs(&b.topo, &tables, Priority::DEFAULT).unwrap();
        verify_valley_free(&b.topo, &tables).unwrap();
    }

    #[test]
    fn up_down_leaf_spine_verifies_clean() {
        let b = leaf_spine(4, 2, 2, LinkSpec::default());
        let tables = up_down_tables(&b.topo);
        verify_all_pairs(&b.topo, &tables, Priority::DEFAULT).unwrap();
    }

    #[test]
    fn odd_ring_shortest_paths_have_cbd_over_all_pairs() {
        // A 5-ring has no equal-cost ties: every 2-hop pair deterministically
        // routes the short way, and those paths jointly wrap the ring —
        // shortest-path routing on rings is not deadlock-free.
        use pfcsim_topo::builders::ring;
        let b = ring(5, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let err = verify_all_pairs(&b.topo, &tables, Priority::DEFAULT);
        assert!(
            matches!(err, Err(FreedomViolation::CyclicDependency(_))),
            "got {err:?}"
        );
    }

    /// A triangle whose A–B side is two links, A sending to hC over the
    /// first and to hB over the second: the all-pairs routes close the
    /// ring A→B→C→A as node paths, but not as buffers, since what enters
    /// B over the second link leaves to hB.
    #[test]
    fn all_pairs_keeps_parallel_links_apart() {
        use pfcsim_topo::graph::Topology;
        use pfcsim_topo::ids::PortNo;
        let mut topo = Topology::new();
        let [a, b, c] = ["A", "B", "C"].map(|n| topo.add_switch(n));
        let [ha, hb, hc] = ["hA", "hB", "hC"].map(|n| topo.add_host(n));
        let spec = LinkSpec::default();
        for (x, y) in [(a, b), (a, b), (b, c), (c, a), (ha, a), (hb, b), (hc, c)] {
            topo.connect(x, y, spec.rate, spec.delay);
        }
        let mut tables = shortest_path_tables(&topo);
        for (node, dst, port) in [(a, hc, 0), (a, hb, 1), (b, hc, 2), (b, ha, 2), (c, hb, 1)] {
            tables.set(node, dst, vec![PortNo(port)]);
        }
        verify_all_pairs(&topo, &tables, Priority::DEFAULT).unwrap();
    }

    #[test]
    fn workload_specific_verdicts_differ_from_all_pairs() {
        // One lonely flow on the square is fine even though the tables are
        // not all-pairs deadlock-free.
        let b = square(LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let specs = vec![FlowSpec::infinite(0, b.hosts[0], b.hosts[1])];
        verify_workload(&b.topo, &tables, &specs).unwrap();
    }

    #[test]
    fn routing_loop_is_reported() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let err = verify_all_pairs(&b.topo, &tables, Priority::DEFAULT);
        assert!(
            matches!(err, Err(FreedomViolation::ForwardingLoop { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn black_hole_is_reported() {
        let b = leaf_spine(2, 1, 1, LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        tables.remove(b.switches[0], b.hosts[1]);
        let err = verify_all_pairs(&b.topo, &tables, Priority::DEFAULT);
        assert!(matches!(err, Err(FreedomViolation::Unroutable { .. })));
    }

    #[test]
    fn workload_with_loop_flow_has_cbd() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let specs =
            vec![FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(1)).with_ttl(16)];
        let err = verify_workload(&b.topo, &tables, &specs);
        assert!(matches!(err, Err(FreedomViolation::CyclicDependency(c)) if c.len() == 2));
    }
}

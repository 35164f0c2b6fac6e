//! Rate-limit planning (paper §4, "Rate limiting").
//!
//! "If we are able to predict the rate threshold for deadlock, we may
//! bound the individual flow rate by that threshold on switches that are
//! involved in cyclic buffer dependency" — this module computes those
//! bounds from the boundary-state model and from a workload's BDG, and
//! emits concrete shaper directives for the simulator.

use serde::{Deserialize, Serialize};

use pfcsim_core::bdg::BufferDependencyGraph;
use pfcsim_core::boundary::BoundaryModel;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::sim::NetSim;
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::graph::Topology;
use pfcsim_topo::ids::{NodeId, PortNo};
use pfcsim_topo::routing::ForwardingTables;

/// One shaper to install: limit `(node, port)` ingress to `rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShaperDirective {
    /// Switch.
    pub node: NodeId,
    /// Ingress port to shape.
    pub port: PortNo,
    /// Rate cap.
    pub rate: BitRate,
    /// Token-bucket burst.
    pub burst: Bytes,
}

/// A rate-limiting plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RatePlan {
    /// Shapers to install.
    pub directives: Vec<ShaperDirective>,
}

impl RatePlan {
    /// Install every directive on a simulator.
    pub fn apply(&self, sim: &mut NetSim) {
        for d in &self.directives {
            sim.try_set_ingress_shaper(d.node, d.port, d.rate, d.burst)
                .expect("set_ingress_shaper");
        }
    }

    /// True iff no shaping was deemed necessary.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }
}

/// The safe injection-rate cap for a known routing loop: `margin` times
/// the Eq. 3 threshold (margin < 1 leaves headroom).
pub fn loop_rate_cap(loop_len: u32, bandwidth: BitRate, ttl: u32, margin: f64) -> BitRate {
    BoundaryModel::new(loop_len, bandwidth, ttl).safe_rate(margin)
}

/// Plan shapers for a workload: find the flows whose paths traverse
/// CBD-involved switches *entering from a host* (the injection points the
/// paper's Case 3 limits), and cap each such ingress at `cap`.
///
/// The shaped ports are host-facing ingresses of switches that own a
/// cyclic RX queue — exactly "switches that are involved in cyclic buffer
/// dependency".
pub fn plan_for_workload(
    topo: &Topology,
    tables: &ForwardingTables,
    specs: &[FlowSpec],
    cap: BitRate,
    burst: Bytes,
) -> RatePlan {
    let g = BufferDependencyGraph::from_specs(topo, tables, specs);
    let cyclic_nodes: std::collections::BTreeSet<NodeId> =
        g.cyclic_queues().into_iter().map(|q| q.node).collect();
    let mut directives = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for spec in specs {
        // The switch behind the source's NIC: the flow's injection point.
        let Some((_, nic)) = spec.hops(topo, tables, spec.ttl as usize).next() else {
            continue;
        };
        let (first_switch, port) = (nic.peer, nic.peer_port);
        if !cyclic_nodes.contains(&first_switch) {
            continue;
        }
        if seen.insert((first_switch, port)) {
            directives.push(ShaperDirective {
                node: first_switch,
                port,
                rate: cap,
                burst,
            });
        }
    }
    RatePlan { directives }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{line, square, LinkSpec};
    use pfcsim_topo::routing::shortest_path_tables;

    #[test]
    fn loop_cap_matches_boundary_model() {
        assert_eq!(
            loop_rate_cap(2, BitRate::from_gbps(40), 16, 1.0),
            BitRate::from_gbps(5)
        );
        assert_eq!(
            loop_rate_cap(2, BitRate::from_gbps(40), 16, 0.8),
            BitRate::from_gbps(4)
        );
    }

    #[test]
    fn acyclic_workload_needs_no_shapers() {
        let b = line(3, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let specs = vec![FlowSpec::infinite(0, b.hosts[0], b.hosts[2])];
        let plan = plan_for_workload(
            &b.topo,
            &tables,
            &specs,
            BitRate::from_gbps(2),
            Bytes::from_kb(2),
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn square_cbd_workload_shapes_injection_points() {
        let b = square(LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let (s, h) = (&b.switches, &b.hosts);
        let specs = vec![
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
            FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]),
        ];
        let plan = plan_for_workload(
            &b.topo,
            &tables,
            &specs,
            BitRate::from_gbps(2),
            Bytes::from_kb(2),
        );
        // All three flows inject at CBD switches (S0, S2, S1).
        assert_eq!(plan.directives.len(), 3);
        let nodes: std::collections::BTreeSet<NodeId> =
            plan.directives.iter().map(|d| d.node).collect();
        assert!(nodes.contains(&s[0]));
        assert!(nodes.contains(&s[1]));
        assert!(nodes.contains(&s[2]));
        for d in &plan.directives {
            assert_eq!(d.rate, BitRate::from_gbps(2));
        }
    }

    #[test]
    fn plan_applies_to_simulator() {
        use pfcsim_net::config::SimConfig;
        use pfcsim_net::sim::SimBuilder;
        let b = square(LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let (s, h) = (&b.switches, &b.hosts);
        let specs = vec![
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        ];
        let plan = plan_for_workload(
            &b.topo,
            &tables,
            &specs,
            BitRate::from_gbps(3),
            Bytes::from_kb(2),
        );
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        for f in &specs {
            sim.add_flow(f.clone());
        }
        plan.apply(&mut sim); // must not panic
    }
}

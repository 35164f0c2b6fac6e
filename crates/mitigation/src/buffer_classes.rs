//! Structured buffer pools (the §2 baseline: Gerla & Kleinrock, Karol et
//! al.) — "a packet is allowed to access more buffer classes as it travels
//! greater distance in the network. [...] as long as the number of buffer
//! classes is no smaller than the hop count of the longest routing path,
//! there will be no cyclic buffer dependency."
//!
//! The planner computes the class count a (topology, workload) needs, and
//! reports the paper's criticism quantitatively: networks of large
//! diameter need many classes and per-class buffer, while "commodity
//! switches with shallow buffer can support at most 2 lossless traffic
//! classes".

use serde::{Deserialize, Serialize};

use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::NodeId;
use pfcsim_topo::routing::{bfs_distances, trace_path, ForwardingTables};

/// Feasibility report for the structured-buffer-pool baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferClassPlan {
    /// Classes required: the max switch-hop count over the workload (or
    /// the topology's host-to-host diameter for the all-pairs guarantee).
    pub classes_required: u8,
    /// Classes the hardware offers (802.1p: 8; commodity lossless: 2).
    pub classes_available: u8,
    /// Per-class buffer if the shared buffer is split evenly.
    pub per_class_buffer: Bytes,
    /// The configured PFC threshold each class must still accommodate.
    pub xoff: Bytes,
}

impl BufferClassPlan {
    /// Deadlock freedom is guaranteed only with enough classes.
    pub fn is_deadlock_free(&self) -> bool {
        self.classes_required <= self.classes_available
    }

    /// Each class must hold at least one XOFF threshold of buffer, or the
    /// scheme cannot even assert back-pressure correctly.
    pub fn is_buffer_feasible(&self) -> bool {
        self.per_class_buffer >= self.xoff
    }

    /// The `SimConfig` knob that enacts this plan in the simulator.
    pub fn sim_classes(&self) -> u8 {
        self.classes_required.min(self.classes_available).min(8)
    }

    /// Apply to a config: enable hop-laddered classes.
    pub fn apply(&self, cfg: &mut SimConfig) {
        cfg.hop_class_mode = Some(self.sim_classes().max(1));
    }
}

/// Longest switch-hop path any host pair can take under `tables`.
pub fn max_route_hops(topo: &Topology, tables: &ForwardingTables) -> u8 {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let mut max = 0u8;
    let mut flow = 0u32;
    for &s in &hosts {
        for &d in &hosts {
            if s == d {
                continue;
            }
            let t = trace_path(
                topo,
                tables,
                pfcsim_topo::ids::FlowId(flow),
                s,
                d,
                4 * topo.node_count(),
            );
            flow += 1;
            let switch_hops = t
                .nodes()
                .iter()
                .filter(|&&n| topo.node(n).kind == NodeKind::Switch)
                .count();
            max = max.max(u8::try_from(switch_hops.min(255)).expect("capped"));
        }
    }
    max
}

/// Topology diameter in switch hops (shortest paths, host to host).
pub fn switch_diameter(topo: &Topology) -> u8 {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let mut max = 0u32;
    for &h in &hosts {
        let dist = bfs_distances(topo, h);
        for &other in &hosts {
            if other != h {
                if let Some(d) = dist[other.0 as usize] {
                    // host->host hops include 2 host links.
                    max = max.max(d.saturating_sub(1));
                }
            }
        }
    }
    u8::try_from(max.min(255)).expect("capped")
}

/// Plan buffer classes for a workload.
pub fn plan_for_workload(
    topo: &Topology,
    tables: &ForwardingTables,
    specs: &[FlowSpec],
    classes_available: u8,
    shared_buffer: Bytes,
    xoff: Bytes,
) -> BufferClassPlan {
    let mut required = 0u8;
    for spec in specs {
        let hops = (spec.hops(topo, tables, spec.ttl as usize))
            .filter(|(_, out)| topo.node(out.peer).kind == NodeKind::Switch)
            .count();
        required = required.max(u8::try_from(hops.min(255)).expect("capped"));
    }
    let denom = required.max(1) as u64;
    BufferClassPlan {
        classes_required: required,
        classes_available,
        per_class_buffer: Bytes::new(shared_buffer.get() / denom),
        xoff,
    }
}

/// Plan for the all-pairs guarantee over the tables.
pub fn plan_all_pairs(
    topo: &Topology,
    tables: &ForwardingTables,
    classes_available: u8,
    shared_buffer: Bytes,
    xoff: Bytes,
) -> BufferClassPlan {
    let required = max_route_hops(topo, tables);
    let denom = required.max(1) as u64;
    BufferClassPlan {
        classes_required: required,
        classes_available,
        per_class_buffer: Bytes::new(shared_buffer.get() / denom),
        xoff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{fat_tree, line, LinkSpec};
    use pfcsim_topo::routing::{shortest_path_tables, up_down_tables};

    #[test]
    fn fat_tree_diameter_and_class_need() {
        let b = fat_tree(4, LinkSpec::default());
        assert_eq!(switch_diameter(&b.topo), 5, "edge-agg-core-agg-edge");
        let tables = up_down_tables(&b.topo);
        let plan = plan_all_pairs(&b.topo, &tables, 8, Bytes::from_mb(12), Bytes::from_kb(40));
        assert_eq!(plan.classes_required, 5);
        assert!(plan.is_deadlock_free(), "8 classes >= 5");
        assert!(plan.is_buffer_feasible());
    }

    #[test]
    fn commodity_two_class_switches_cannot_cover_fat_tree() {
        let b = fat_tree(4, LinkSpec::default());
        let tables = up_down_tables(&b.topo);
        let plan = plan_all_pairs(
            &b.topo,
            &tables,
            2, // the paper: commodity switches support at most 2 lossless classes
            Bytes::from_mb(12),
            Bytes::from_kb(40),
        );
        assert!(!plan.is_deadlock_free(), "2 < 5 required classes");
    }

    #[test]
    fn long_line_needs_classes_linear_in_length() {
        let b = line(7, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let plan = plan_all_pairs(&b.topo, &tables, 8, Bytes::from_mb(12), Bytes::from_kb(40));
        assert_eq!(plan.classes_required, 7);
        assert_eq!(plan.per_class_buffer, Bytes::new(12_000_000 / 7));
    }

    #[test]
    fn shallow_buffer_becomes_infeasible() {
        let b = line(7, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        // A shallow-buffer commodity chip: 250 KB shared.
        let plan = plan_all_pairs(&b.topo, &tables, 8, Bytes::from_kb(250), Bytes::from_kb(40));
        assert!(!plan.is_buffer_feasible(), "250/7 KB < 40 KB threshold");
    }

    #[test]
    fn workload_plan_uses_actual_paths() {
        use pfcsim_net::flow::FlowSpec;
        let b = line(5, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        // Short flow: 2 switches only.
        let specs = vec![FlowSpec::infinite(0, b.hosts[0], b.hosts[1])];
        let plan = plan_for_workload(
            &b.topo,
            &tables,
            &specs,
            8,
            Bytes::from_mb(12),
            Bytes::from_kb(40),
        );
        assert_eq!(plan.classes_required, 2);
        let mut cfg = SimConfig::default();
        plan.apply(&mut cfg);
        assert_eq!(cfg.hop_class_mode, Some(2));
    }
}

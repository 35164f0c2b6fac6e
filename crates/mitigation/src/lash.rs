//! LASH — LAyered SHortest-path routing (Skeie, Lysne & Theiss; the
//! paper's citation \[20\]).
//!
//! Keep *shortest* paths (no stretch, unlike up*/down*) and instead
//! partition them into layers — priority classes with independent PFC
//! state — such that every layer's buffer dependency graph is acyclic.
//! Greedy first-fit: each path goes into the first layer it doesn't close
//! a cycle in; a new layer is opened when none fits.
//!
//! The trade: deadlock freedom at full path efficiency, paid in lossless
//! classes — which commodity switches have at most 2 of (paper §1), so
//! feasibility is exactly the question [`lash_assign`] answers.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pfcsim_core::bdg::BufferDependencyGraph;
use pfcsim_net::flow::FlowSpec;
use pfcsim_topo::graph::Topology;
use pfcsim_topo::ids::{FlowId, NodeId, Priority};
use pfcsim_topo::routing::path_hops;

/// Result of a LASH layering.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LashAssignment {
    /// Layer (0-based) per flow.
    pub layer_of: BTreeMap<FlowId, u8>,
    /// Number of layers used.
    pub layer_count: u8,
    /// First 802.1p class used; flow priority = `base_class + layer`.
    pub base_class: u8,
}

impl LashAssignment {
    /// The priority class assigned to `flow`.
    pub fn class_of(&self, flow: FlowId) -> Priority {
        Priority(self.base_class + self.layer_of[&flow])
    }

    /// Rewrite flow priorities per the assignment.
    pub fn apply(&self, specs: &mut [FlowSpec]) {
        for s in specs.iter_mut() {
            if let Some(&layer) = self.layer_of.get(&s.id) {
                s.priority = Priority(self.base_class + layer);
            }
        }
    }
}

/// LASH failure: the path set needs more layers than available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LashOverflow {
    /// Layers that would have been needed so far (≥ max requested).
    pub needed: u8,
    /// The flow that could not be placed.
    pub unplaced: FlowId,
}

/// Assign `paths` (flow id, node path) to at most `max_layers` layers with
/// acyclic per-layer dependency graphs. Deterministic: first-fit in the
/// given order.
pub fn lash_assign(
    topo: &Topology,
    paths: &[(FlowId, Vec<NodeId>)],
    base_class: u8,
    max_layers: u8,
) -> Result<LashAssignment, LashOverflow> {
    assert!(max_layers >= 1, "need at least one layer");
    assert!(
        base_class + max_layers <= 8,
        "layers exceed the 802.1p class range"
    );
    let mut layers: Vec<BufferDependencyGraph> = Vec::new();
    let mut layer_of = BTreeMap::new();
    for (flow, path) in paths {
        let mut placed = false;
        for (li, g) in layers.iter_mut().enumerate() {
            let (mut trial, class) = (g.clone(), Priority(base_class + li as u8));
            trial.add_path(topo, path_hops(topo, path), class, None);
            if !trial.has_cbd() {
                *g = trial;
                layer_of.insert(*flow, li as u8);
                placed = true;
                break;
            }
        }
        if !placed {
            if layers.len() as u8 >= max_layers {
                return Err(LashOverflow {
                    needed: layers.len() as u8 + 1,
                    unplaced: *flow,
                });
            }
            let li = layers.len() as u8;
            let mut g = BufferDependencyGraph::new();
            g.add_path(topo, path_hops(topo, path), Priority(base_class + li), None);
            debug_assert!(!g.has_cbd(), "a single simple path cannot be cyclic");
            layers.push(g);
            layer_of.insert(*flow, li);
        }
    }
    Ok(LashAssignment {
        layer_of,
        layer_count: layers.len() as u8,
        base_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{ring, square, LinkSpec};

    fn square_fig4_paths(b: &pfcsim_topo::builders::Built) -> Vec<(FlowId, Vec<NodeId>)> {
        let (s, h) = (&b.switches, &b.hosts);
        vec![
            (FlowId(1), vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            (FlowId(2), vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
            (FlowId(3), vec![h[1], s[1], s[2], h[2]]),
        ]
    }

    #[test]
    fn fig4_needs_exactly_two_layers() {
        let b = square(LinkSpec::default());
        let paths = square_fig4_paths(&b);
        let a = lash_assign(&b.topo, &paths, 0, 8).unwrap();
        assert_eq!(
            a.layer_count, 2,
            "flows 1+3 fit one layer; flow 2 closes the ring"
        );
        // Flows 1 and 2 must be separated (they alone form the cycle).
        assert_ne!(a.layer_of[&FlowId(1)], a.layer_of[&FlowId(2)]);
    }

    #[test]
    fn overflow_reported_when_classes_exhausted() {
        let b = square(LinkSpec::default());
        let paths = square_fig4_paths(&b);
        let err = lash_assign(&b.topo, &paths, 0, 1).unwrap_err();
        assert_eq!(err.needed, 2);
        assert_eq!(err.unplaced, FlowId(2));
    }

    #[test]
    fn ring_all_pairs_layering_is_acyclic_per_layer() {
        use pfcsim_topo::ids::Priority;
        use pfcsim_topo::routing::{shortest_path_tables, trace_path};
        let b = ring(5, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let mut paths = Vec::new();
        let mut id = 0u32;
        for &s in &b.hosts {
            for &d in &b.hosts {
                if s == d {
                    continue;
                }
                let t = trace_path(&b.topo, &tables, FlowId(id), s, d, 32);
                assert!(t.delivered());
                paths.push((FlowId(id), t.nodes().to_vec()));
                id += 1;
            }
        }
        let a = lash_assign(&b.topo, &paths, 0, 8).unwrap();
        assert!(a.layer_count >= 2, "the ring needs separation");
        assert!(
            a.layer_count <= 3,
            "small rings layer cheaply: {}",
            a.layer_count
        );
        // Verify: rebuild each layer's BDG and check acyclicity.
        for layer in 0..a.layer_count {
            let mut g = BufferDependencyGraph::new();
            for (f, p) in &paths {
                if a.layer_of[f] == layer {
                    g.add_path(&b.topo, path_hops(&b.topo, p), Priority(layer), None);
                }
            }
            assert!(!g.has_cbd(), "layer {layer} must be acyclic");
        }
    }

    #[test]
    fn apply_rewrites_priorities() {
        let b = square(LinkSpec::default());
        let paths = square_fig4_paths(&b);
        let a = lash_assign(&b.topo, &paths, 2, 4).unwrap();
        let mut specs = vec![
            FlowSpec::infinite(1, b.hosts[0], b.hosts[3]),
            FlowSpec::infinite(2, b.hosts[2], b.hosts[1]),
            FlowSpec::infinite(3, b.hosts[1], b.hosts[2]),
        ];
        a.apply(&mut specs);
        for s in &specs {
            assert!(s.priority.0 >= 2 && s.priority.0 < 2 + a.layer_count);
        }
    }
}

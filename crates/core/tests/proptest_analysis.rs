//! Property tests for the analysis algorithms: SCC/cycle consistency,
//! BDG construction invariants, and boundary-model algebra.

use proptest::prelude::*;

use pfcsim_core::boundary::BoundaryModel;
use pfcsim_net::bdg::{elementary_cycles, has_cycle, tarjan_scc, BufferDependencyGraph};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{ring, LinkSpec};
use pfcsim_topo::ids::{NodeId, Priority};
use pfcsim_topo::routing::path_hops;

fn random_digraph(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        let (u, v) = (u % n, v % n);
        if !adj[u].contains(&v) {
            adj[u].push(v);
        }
    }
    adj
}

proptest! {
    /// A graph has a cycle iff it has at least one elementary cycle, and
    /// every reported elementary cycle is a real closed walk.
    #[test]
    fn cycles_and_scc_agree(
        n in 1usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..30),
    ) {
        let adj = random_digraph(n, &edges);
        let cycles = elementary_cycles(&adj, 100_000);
        prop_assert_eq!(has_cycle(&adj), !cycles.is_empty());
        for c in &cycles {
            for i in 0..c.len() {
                let (u, v) = (c[i], c[(i + 1) % c.len()]);
                prop_assert!(adj[u].contains(&v), "cycle edge {u}->{v} missing");
            }
            // Elementary: all vertices distinct.
            let set: std::collections::BTreeSet<_> = c.iter().collect();
            prop_assert_eq!(set.len(), c.len());
        }
    }

    /// SCC partition: every vertex appears exactly once.
    #[test]
    fn scc_is_a_partition(
        n in 1usize..10,
        edges in prop::collection::vec((0usize..10, 0usize..10), 0..40),
    ) {
        let adj = random_digraph(n, &edges);
        let comps = tarjan_scc(&adj);
        let mut seen = vec![0u32; n];
        for c in &comps {
            for &v in c {
                seen[v] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1), "partition violated: {seen:?}");
    }

    /// Adding a path to a BDG only grows it, and reversing a simple chain
    /// of flows around a ring produces a cycle iff the chain closes.
    #[test]
    fn bdg_growth_monotone(k in 2usize..8, close in any::<bool>()) {
        let b = ring(8, LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        // k consecutive 2-switch-overlap flows around the 8-ring; closing
        // the chain requires wrapping all the way round.
        let seg = |i: usize| -> Vec<NodeId> {
            vec![
                h[(2 * i) % 8],
                s[(2 * i) % 8],
                s[(2 * i + 1) % 8],
                s[(2 * i + 2) % 8],
                s[(2 * i + 3) % 8],
                s[(2 * i + 4) % 8],
                h[(2 * i + 4) % 8],
            ]
        };
        let mut g = BufferDependencyGraph::new();
        let mut last_edges = 0;
        let count = if close { 4 } else { k.min(3) };
        for i in 0..count {
            g.add_path(&b.topo, path_hops(&b.topo, &seg(i)), Priority::DEFAULT, None);
            prop_assert!(g.edge_count() >= last_edges, "edges shrank");
            last_edges = g.edge_count();
        }
        // The 4-segment chain wraps the ring: cyclic. Fewer: acyclic.
        prop_assert_eq!(g.has_cbd(), close);
    }

    /// Boundary model algebra: threshold scales linearly in B and n, and
    /// inversely in TTL; safe_rate is monotone in margin.
    #[test]
    fn boundary_model_scaling(
        n in 1u32..10,
        gbps in 1u64..400,
        ttl in 1u32..128,
        m1 in 0.0f64..1.0,
        m2 in 0.0f64..1.0,
    ) {
        let b = BitRate::from_gbps(gbps);
        let m = BoundaryModel::new(n, b, ttl);
        let t = m.deadlock_threshold();
        // Doubling bandwidth doubles the threshold (up to truncation).
        let m2x = BoundaryModel::new(n, BitRate::from_gbps(gbps * 2), ttl);
        let diff = (m2x.deadlock_threshold().bps() as i128 - 2 * t.bps() as i128).unsigned_abs();
        prop_assert!(diff <= 1, "2x bandwidth scaling off by {diff}");
        // Doubling TTL halves it (within integer truncation).
        let mhalf = BoundaryModel::new(n, b, ttl * 2);
        prop_assert!(mhalf.deadlock_threshold().bps() <= t.bps() / 2 + 1);
        // safe_rate monotone in margin.
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(m.safe_rate(lo) <= m.safe_rate(hi));
        // Predicts-deadlock is consistent with the threshold.
        prop_assert!(!m.predicts_deadlock(t));
        prop_assert!(m.predicts_deadlock(BitRate::from_bps(t.bps() + 1)));
    }
}

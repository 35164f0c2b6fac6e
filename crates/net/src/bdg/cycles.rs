//! Elementary-cycle enumeration (Johnson's algorithm, bounded).
//!
//! Used to produce human-readable CBD witnesses: not just "a cycle exists"
//! but the actual RX-queue rings of the paper's Figures 2(b), 3(b), 4(b).

use std::collections::BTreeSet;

use super::scc::tarjan_scc;

/// Enumerate elementary cycles of the digraph, stopping after `limit`
/// cycles (the count can be exponential). Each cycle lists vertex indices
/// in order, starting from its smallest vertex.
pub fn elementary_cycles(adj: &[Vec<usize>], limit: usize) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut result = Vec::new();
    if n == 0 || limit == 0 {
        return result;
    }
    // Self-loops first (Johnson's algorithm works on simple digraphs).
    for (v, out) in adj.iter().enumerate() {
        if out.contains(&v) {
            result.push(vec![v]);
            if result.len() >= limit {
                return result;
            }
        }
    }

    let mut blocked = vec![false; n];
    let mut block_map: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut stack: Vec<usize> = Vec::new();

    // Process vertices in increasing order; for each start s, restrict to
    // the SCC containing s within the subgraph induced by {s..n}.
    for s in 0..n {
        if result.len() >= limit {
            break;
        }
        // Subgraph on vertices >= s.
        let sub: Vec<Vec<usize>> = (0..n)
            .map(|u| {
                if u < s {
                    Vec::new()
                } else {
                    adj[u]
                        .iter()
                        .copied()
                        .filter(|&v| v >= s && v != u)
                        .collect()
                }
            })
            .collect();
        let comps = tarjan_scc(&sub);
        let Some(comp) = comps.into_iter().find(|c| c.contains(&s) && c.len() > 1) else {
            continue;
        };
        let in_comp: BTreeSet<usize> = comp.into_iter().collect();
        for v in &in_comp {
            blocked[*v] = false;
            block_map[*v].clear();
        }

        // Recursive circuit search, implemented iteratively would be
        // intricate; depth is bounded by the SCC size, so recursion with an
        // explicit helper is fine for simulation-scale graphs.
        fn unblock(v: usize, blocked: &mut [bool], block_map: &mut [BTreeSet<usize>]) {
            blocked[v] = false;
            let deps: Vec<usize> = block_map[v].iter().copied().collect();
            block_map[v].clear();
            for w in deps {
                if blocked[w] {
                    unblock(w, blocked, block_map);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn circuit(
            v: usize,
            s: usize,
            adj: &[Vec<usize>],
            in_comp: &BTreeSet<usize>,
            blocked: &mut [bool],
            block_map: &mut Vec<BTreeSet<usize>>,
            stack: &mut Vec<usize>,
            result: &mut Vec<Vec<usize>>,
            limit: usize,
        ) -> bool {
            let mut found = false;
            stack.push(v);
            blocked[v] = true;
            for &w in &adj[v] {
                if w == v || !in_comp.contains(&w) {
                    continue;
                }
                if result.len() >= limit {
                    break;
                }
                if w == s {
                    result.push(stack.clone());
                    found = true;
                } else if !blocked[w]
                    && circuit(w, s, adj, in_comp, blocked, block_map, stack, result, limit)
                {
                    found = true;
                }
            }
            if found {
                unblock(v, blocked, block_map);
            } else {
                for &w in &adj[v] {
                    if w != v && in_comp.contains(&w) {
                        block_map[w].insert(v);
                    }
                }
            }
            stack.pop();
            found
        }

        circuit(
            s,
            s,
            adj,
            &in_comp,
            &mut blocked,
            &mut block_map,
            &mut stack,
            &mut result,
            limit,
        );
        stack.clear();
    }
    result.truncate(limit);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut cycles: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        cycles.sort();
        cycles
    }

    #[test]
    fn no_cycles_in_dag() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        assert!(elementary_cycles(&adj, 100).is_empty());
    }

    #[test]
    fn single_triangle() {
        let adj = vec![vec![1], vec![2], vec![0]];
        assert_eq!(elementary_cycles(&adj, 100), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn self_loop_counts() {
        let adj = vec![vec![0, 1], vec![]];
        assert_eq!(elementary_cycles(&adj, 100), vec![vec![0]]);
    }

    #[test]
    fn two_cycles_sharing_a_vertex() {
        // 0->1->0 and 0->2->0.
        let adj = vec![vec![1, 2], vec![0], vec![0]];
        let cycles = sorted(elementary_cycles(&adj, 100));
        assert_eq!(cycles, vec![vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn complete_digraph_k3_has_five_cycles() {
        // K3 with all 6 arcs: cycles = 3 two-cycles + 2 triangles.
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let cycles = elementary_cycles(&adj, 100);
        assert_eq!(cycles.len(), 5);
        assert_eq!(cycles.iter().filter(|c| c.len() == 2).count(), 3);
        assert_eq!(cycles.iter().filter(|c| c.len() == 3).count(), 2);
    }

    #[test]
    fn limit_truncates() {
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        assert_eq!(elementary_cycles(&adj, 2).len(), 2);
        assert!(elementary_cycles(&adj, 0).is_empty());
    }

    #[test]
    fn cycles_start_at_smallest_vertex() {
        let adj = vec![vec![], vec![2], vec![3], vec![1]];
        let cycles = elementary_cycles(&adj, 10);
        assert_eq!(cycles, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn count_matches_bruteforce_on_random_graphs() {
        use pfcsim_simcore::rng::SimRng;
        let mut rng = SimRng::new(7);
        for _ in 0..30 {
            let n = 2 + rng.gen_range(5) as usize;
            let mut adj = vec![Vec::new(); n];
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.3) {
                        adj[u].push(v);
                    }
                }
            }
            // Brute force: DFS all simple paths back to start.
            fn brute(
                adj: &[Vec<usize>],
                start: usize,
                v: usize,
                visited: &mut Vec<bool>,
                count: &mut usize,
            ) {
                for &w in &adj[v] {
                    if w == start && v >= start {
                        *count += 1;
                    } else if w > start && !visited[w] {
                        visited[w] = true;
                        brute(adj, start, w, visited, count);
                        visited[w] = false;
                    }
                }
            }
            let mut expected = 0;
            for s in 0..n {
                let mut visited = vec![false; n];
                visited[s] = true;
                brute(&adj, s, s, &mut visited, &mut expected);
            }
            let got = elementary_cycles(&adj, 100_000).len();
            assert_eq!(got, expected, "adj={adj:?}");
        }
    }
}

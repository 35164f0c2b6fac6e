//! Seed → inputs. Everything a workload feeds the program is derived
//! here from `--seed` with the benchmark's own generator, so a change to
//! the program's RNG cannot change the inputs it is measured on.

/// FNV-1a 64 of `bytes`: the benchmark's own digest of program output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a per-workload `salt`, so two workloads
    /// never share draws.
    pub fn new(seed: u64, salt: &str) -> Rng {
        Rng(fnv1a(salt.as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the plain modulo is below 2⁻⁵⁰ for
    /// the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A permutation of `0..n` in which no element maps into its own group
/// of `group` consecutive indices (a cross-pod derangement when `group`
/// is the pod size; a plain derangement when `group == 1`).
pub fn cross_group_derangement(rng: &mut Rng, n: usize, group: usize) -> Vec<usize> {
    assert!(group >= 1 && n >= 3 * group, "needs at least three groups");
    let same = |a: usize, b: usize| a / group == b / group;
    let mut p: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut p);
    // Repair: swap each offending image with a random one whose swap
    // leaves both positions valid. With three or more groups a partner
    // always exists, so this terminates.
    loop {
        let Some(i) = (0..n).find(|&i| same(i, p[i])) else {
            return p;
        };
        loop {
            let j = rng.below(n);
            if !same(i, p[j]) && !same(j, p[i]) {
                p.swap(i, j);
                break;
            }
        }
    }
}

/// `fabric_saturated`: one infinite-demand flow per host of a k=8
/// fat-tree (128 hosts, pods of 16), destination in another pod.
pub fn saturated_permutation(seed: u64) -> Vec<usize> {
    cross_group_derangement(&mut Rng::new(seed, "fabric_saturated"), 128, 16)
}

/// `fabric_mixed` inputs on the same fabric.
pub struct MixedInputs {
    /// Saturating permutation among the 32 hosts of pods 0–1.
    pub hot: Vec<usize>,
    /// One intra-rack CBR rate in Gbps per edge switch of pods 2–7.
    pub cbr_gbps: Vec<u64>,
}

pub fn mixed_inputs(seed: u64) -> MixedInputs {
    let mut rng = Rng::new(seed, "fabric_mixed");
    let hot = cross_group_derangement(&mut rng, 32, 1);
    let cbr_gbps = (0..24).map(|_| 20 + rng.below(16) as u64).collect();
    MixedInputs { hot, cbr_gbps }
}

// ---------------------------------------------------------------------
// serve request scripts (k=4 fat-tree: 4 pods × 2 edges × 2 hosts)
// ---------------------------------------------------------------------

const K4_PODS: usize = 4;
const K4_HALF: usize = 2;

fn k4_host(i: usize) -> String {
    let (p, r) = (i / (K4_HALF * K4_HALF), i % (K4_HALF * K4_HALF));
    format!("h{p}-{}-{}", r / K4_HALF, r % K4_HALF)
}

/// The `open` request both serve workloads start from: k=4 fat-tree,
/// sixteen 5 Gbps CBR flows, host i → host i+1.
pub fn serve_open_line() -> String {
    let n = K4_PODS * K4_HALF * K4_HALF;
    let flows: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "{{\"id\":{i},\"src\":\"{}\",\"dst\":\"{}\",\"gbps\":5}}",
                k4_host(i),
                k4_host((i + 1) % n)
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"pfcsim-serve/1\",\"id\":0,\"op\":\"open\",\
         \"topo\":{{\"builder\":\"fat_tree\",\"k\":4}},\"flows\":[{}]}}",
        flows.join(",")
    )
}

/// A candidate route push, as the JSON fields `node`, `dst`, `ports`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Push {
    pub node: String,
    pub dst: String,
    pub port: String,
    /// Whether the push points an edge switch's own host back up at an
    /// aggregation switch, closing a two-switch loop under live traffic.
    pub closes_loop: bool,
}

impl Push {
    pub fn fields(&self) -> String {
        format!(
            "\"node\":\"{}\",\"dst\":\"{}\",\"ports\":[\"{}\"]",
            self.node, self.dst, self.port
        )
    }

    /// Stable key for `expected.json`.
    pub fn key(&self) -> String {
        format!("{}>{}>{}", self.node, self.dst, self.port)
    }
}

/// A benign push: pin one of the two equal-cost up-links of an edge
/// switch for a destination in another pod. Never touches pod 0's
/// aggregation layer, whose core link `serve_churn` toggles.
fn benign_push(rng: &mut Rng) -> Push {
    let p = rng.below(K4_PODS);
    let e = rng.below(K4_HALF);
    let a = rng.below(K4_HALF);
    let mut dp = rng.below(K4_PODS - 1);
    if dp >= p {
        dp += 1;
    }
    let dst = dp * K4_HALF * K4_HALF + rng.below(K4_HALF * K4_HALF);
    Push {
        node: format!("edge{p}-{e}"),
        dst: k4_host(dst),
        port: format!("agg{p}-{a}"),
        closes_loop: false,
    }
}

/// A loop-closing push: an edge switch sends traffic for one of its own
/// hosts back up (every host receives a 5 Gbps flow, above the Eq. 3
/// threshold of 2·40/64 = 1.25 Gbps, so the probe must find a deadlock).
fn loop_push(rng: &mut Rng) -> Push {
    let p = rng.below(K4_PODS);
    let e = rng.below(K4_HALF);
    let h = rng.below(K4_HALF);
    let a = rng.below(K4_HALF);
    Push {
        node: format!("edge{p}-{e}"),
        dst: format!("h{p}-{e}-{h}"),
        port: format!("agg{p}-{a}"),
        closes_loop: true,
    }
}

/// `serve_vet`: a pool of 14 benign and 6 loop-closing distinct pushes.
pub fn vet_pool(seed: u64) -> Vec<Push> {
    let mut rng = Rng::new(seed, "serve_vet.pool");
    let mut pool: Vec<Push> = Vec::new();
    let mut fill = |want: usize, make: fn(&mut Rng) -> Push, pool: &mut Vec<Push>| {
        let target = pool.len() + want;
        while pool.len() < target {
            let p = make(&mut rng);
            if !pool.contains(&p) {
                pool.push(p);
            }
        }
    };
    fill(14, benign_push, &mut pool);
    fill(6, loop_push, &mut pool);
    pool
}

/// `serve_vet`: which pool entry each timed query asks about — about
/// 70 % benign and 30 % loop-closing, independent of the pool's mix.
pub fn vet_draws(seed: u64, pool: &[Push], count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, "serve_vet.draws");
    let benign: Vec<usize> = (0..pool.len()).filter(|&i| !pool[i].closes_loop).collect();
    let looping: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].closes_loop).collect();
    (0..count)
        .map(|_| {
            let from = if rng.below(10) < 7 { &benign } else { &looping };
            from[rng.below(from.len())]
        })
        .collect()
}

pub const VET_WINDOW_US: u64 = 500;

pub fn what_if_line(id: u64, kind: &str, push: &Push) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"query\",\"kind\":\"{kind}\",\"window_us\":{VET_WINDOW_US},\
         \"updates\":[{{{}}}]}}",
        push.fields()
    )
}

/// Which class of operation a `serve_churn` request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    Advance,
    Commit,
    Status,
    Cbd,
    Rebuild,
}

/// `serve_churn`: the request lines of one pass after `open`. Every
/// cycle advances 10 µs, commits one benign push, and asks `status` and
/// `cbd`; every 25th cycle adds one structural mutation that makes the
/// service rebuild by replay.
pub fn churn_script(seed: u64, cycles: usize) -> Vec<(ChurnOp, String)> {
    let mut rng = Rng::new(seed, "serve_churn");
    let mut out = Vec::with_capacity(cycles * 4 + cycles / 25);
    // Request ids count up from 1; `flow_add` is the exception, because
    // the protocol reads the new flow's id from the request's own `id`.
    let mut next_id = 1u64;
    let mut line = |op: ChurnOp, id: Option<u64>, body: String| {
        let id = id.unwrap_or(next_id);
        next_id += 1;
        out.push((op, format!("{{\"id\":{id},{body}}}")));
    };
    let mut structural = 0u64;
    for c in 1..=cycles {
        line(
            ChurnOp::Advance,
            None,
            format!("\"op\":\"advance\",\"to_us\":{}", 10 * c),
        );
        let push = benign_push(&mut rng);
        line(
            ChurnOp::Commit,
            None,
            format!(
                "\"op\":\"route_update\",\"mode\":\"commit\",{}",
                push.fields()
            ),
        );
        line(
            ChurnOp::Status,
            None,
            "\"op\":\"query\",\"kind\":\"status\"".into(),
        );
        line(
            ChurnOp::Cbd,
            None,
            "\"op\":\"query\",\"kind\":\"cbd\"".into(),
        );
        if c % 25 == 0 {
            let flow = 1000 + structural / 4;
            let (id, body) = match structural % 4 {
                0 => (
                    None,
                    "\"op\":\"link_down\",\"a\":\"agg0-0\",\"b\":\"core0\"".to_string(),
                ),
                1 => {
                    let src = rng.below(16);
                    let dst = (src + 2 + rng.below(13)) % 16;
                    let body = format!(
                        "\"op\":\"flow_add\",\"src\":\"{}\",\"dst\":\"{}\",\"gbps\":{}",
                        k4_host(src),
                        k4_host(dst),
                        1 + rng.below(4)
                    );
                    (Some(flow), body)
                }
                2 => (
                    None,
                    "\"op\":\"link_up\",\"a\":\"agg0-0\",\"b\":\"core0\"".to_string(),
                ),
                _ => (None, format!("\"op\":\"flow_remove\",\"flow\":{flow}")),
            };
            line(ChurnOp::Rebuild, id, body);
            structural += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        assert_eq!(saturated_permutation(5), saturated_permutation(5));
        assert_ne!(saturated_permutation(5), saturated_permutation(6));
        assert_eq!(mixed_inputs(5).hot, mixed_inputs(5).hot);
        assert_eq!(mixed_inputs(5).cbr_gbps, mixed_inputs(5).cbr_gbps);
        assert_ne!(mixed_inputs(5).hot, mixed_inputs(6).hot);
        assert_eq!(churn_script(5, 50), churn_script(5, 50));
        assert_ne!(churn_script(5, 50), churn_script(6, 50));
        let pool = vet_pool(5);
        assert_eq!(pool, vet_pool(5));
        assert_ne!(pool, vet_pool(6));
        assert_eq!(vet_draws(5, &pool, 300), vet_draws(5, &pool, 300));
        assert_ne!(vet_draws(5, &pool, 300), vet_draws(6, &pool, 300));
    }

    #[test]
    fn derangements_leave_every_group() {
        for seed in 0..50 {
            let p = saturated_permutation(seed);
            let mut seen = p.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..128).collect::<Vec<_>>());
            assert!((0..128).all(|i| i / 16 != p[i] / 16), "seed {seed}");
            let m = mixed_inputs(seed);
            assert!((0..32).all(|i| m.hot[i] != i));
            assert!(m.cbr_gbps.iter().all(|g| (20..=35).contains(g)));
        }
    }

    #[test]
    fn vet_pool_mixes_distinct_benign_and_looping_pushes() {
        let pool = vet_pool(1);
        assert_eq!(pool.len(), 20);
        assert_eq!(pool.iter().filter(|p| p.closes_loop).count(), 6);
        for (i, p) in pool.iter().enumerate() {
            assert!(pool[..i].iter().all(|q| q != p));
        }
        let draws = vet_draws(1, &pool, 1000);
        let looping = draws.iter().filter(|&&i| pool[i].closes_loop).count();
        assert!((250..350).contains(&looping), "{looping} of 1000");
    }

    #[test]
    fn churn_script_has_the_stated_shape() {
        let s = churn_script(1, 400);
        assert_eq!(s.len(), 400 * 4 + 16);
        let rebuilds: Vec<&str> = s
            .iter()
            .filter(|(op, _)| *op == ChurnOp::Rebuild)
            .map(|(_, l)| l.as_str())
            .collect();
        assert!(rebuilds[0].contains("link_down"));
        assert!(rebuilds[1].contains("flow_add"));
        assert!(rebuilds[2].contains("link_up"));
        assert!(rebuilds[1].starts_with("{\"id\":1000,"));
        assert!(rebuilds[3].contains("\"flow_remove\",\"flow\":1000"));
        assert!(serve_open_line().contains("\"src\":\"h3-1-1\",\"dst\":\"h0-0-0\""));
    }
}

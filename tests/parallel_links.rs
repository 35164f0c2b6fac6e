//! Parallel links through the `pfcsim::session` facade: seeded fabrics
//! whose switches are joined by one or two links of unequal rate, sent to
//! `open` as raw topology documents, with routes that name ports — so a
//! loop or an ECMP set may take either of two links between one pair of
//! switches.
//!
//! On every session, before and after it runs a while, a `what_if` with
//! no pushes is decided by the static pre-check exactly when the `cbd`
//! query finds no cycle, and its verdict is the batch oracle's. Both
//! graphs key a buffer by the port a hop takes, so they agree. Built with
//! debug assertions (plain `cargo test`), every statically decided
//! `what_if` also checks inside the session that `static_cbd` finds no
//! cycle.

use pfcsim::session::{Control, ServeConfig, ServeSession};
use pfcsim::simcore::rng::SimRng;
use pfcsim::simcore::time::SimDuration;
use pfcsim::simcore::units::BitRate;
use pfcsim::topo::graph::{NodeKind, Topology};
use pfcsim::topo::ids::NodeId;
use serde_json::Value;

/// Probe window: enough for a loop to wedge, short enough to stay quick.
const WINDOW_US: u64 = 300;

/// A ring of `n` switches, one host on each, every switch–switch link
/// doubled with probability 3/4 at a different rate, all links connected
/// in shuffled order so parallel links sit at scattered port numbers.
fn fabric(rng: &mut SimRng, n: usize) -> Topology {
    let mut topo = Topology::new();
    let switches: Vec<NodeId> = (0..n).map(|i| topo.add_switch(format!("S{i}"))).collect();
    let hosts: Vec<NodeId> = (0..n).map(|i| topo.add_host(format!("h{i}"))).collect();
    let gbps = [10, 25, 40];
    let mut links = Vec::new();
    for i in 0..if n == 2 { 1 } else { n } {
        let (a, b) = (switches[i], switches[(i + 1) % n]);
        links.push((a, b, 40));
        if rng.gen_bool(0.75) {
            links.push((b, a, gbps[rng.gen_range(3) as usize]));
        }
    }
    for (&h, &s) in hosts.iter().zip(&switches) {
        links.push((h, s, 40));
    }
    rng.shuffle(&mut links);
    for (a, b, g) in links {
        topo.connect(a, b, BitRate::from_gbps(g), SimDuration::from_us(1));
    }
    topo
}

/// The ports of `node` that face `peer`.
fn ports_toward(topo: &Topology, node: NodeId, peer: NodeId) -> Vec<u16> {
    (topo.ports(node).iter())
        .filter(|p| p.peer == peer)
        .map(|p| p.port.0)
        .collect()
}

/// The `open` line of a seeded session on `topo`: a routing loop around
/// the ring toward one host over randomly chosen parallel links, random
/// ECMP sets over any links toward the other hosts, and a few CBR flows.
fn open_line(rng: &mut SimRng, topo: &Topology) -> String {
    let switches: Vec<NodeId> = topo.switches().collect();
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let name = |n: NodeId| &topo.node(n).name;
    let pick = |rng: &mut SimRng, from: &[u16]| from[rng.gen_range(from.len() as u64) as usize];
    let looped = (rng.gen_bool(0.5)).then(|| pick(rng, &[0, 1, 2]) as usize % hosts.len());
    let mut routes = Vec::new();
    for (i, &s) in switches.iter().enumerate() {
        for (d, &dst) in hosts.iter().enumerate() {
            let ports: Vec<u16> = if looped == Some(d) {
                let next = switches[(i + 1) % switches.len()];
                vec![pick(rng, &ports_toward(topo, s, next))]
            } else if i != d && rng.gen_bool(0.5) {
                let uplinks: Vec<u16> = (topo.ports(s).iter())
                    .filter(|p| topo.node(p.peer).kind == NodeKind::Switch)
                    .map(|p| p.port.0)
                    .collect();
                (0..1 + rng.gen_range(2))
                    .map(|_| pick(rng, &uplinks))
                    .collect()
            } else {
                continue;
            };
            routes.push(format!(
                r#"{{"node":"{}","dst":"{}","ports":{ports:?}}}"#,
                name(s),
                name(dst)
            ));
        }
    }
    let mut flows = Vec::new();
    for id in 0..2 + rng.gen_range(3) {
        let src = hosts[rng.gen_range(hosts.len() as u64) as usize];
        let to = hosts[rng.gen_range(hosts.len() as u64) as usize];
        let (gbps, ttl) = (1 + rng.gen_range(20), 8 + rng.gen_range(24));
        if src != to {
            flows.push(format!(
                r#"{{"id":{id},"src":"{}","dst":"{}","gbps":{gbps},"ttl":{ttl}}}"#,
                name(src),
                name(to)
            ));
        }
    }
    format!(
        r#"{{"op":"open","topo":{},"flows":[{}],"routes":[{}],"horizon_us":5000}}"#,
        serde_json::to_string(topo).expect("a topology document"),
        flows.join(","),
        routes.join(",")
    )
}

/// The `result` of one request, which must succeed.
fn ask(serve: &mut ServeSession, line: &str) -> Value {
    let (resp, control) = serve.handle_line(line);
    assert_eq!(control, Control::Continue, "{line}");
    let doc: Value = serde_json::from_str(&resp.expect("a response")).unwrap();
    assert!(doc["ok"] == true, "{line} -> {doc:?}");
    doc["result"].clone()
}

/// A triangle whose A–B side is two parallel links, routed so that the
/// three flows' node paths close the ring A→B→C→A while the flow that
/// enters B over the second A–B link leaves to a host: no buffer cycle.
fn triangle() -> String {
    let mut topo = Topology::new();
    let [a, b, c] = ["A", "B", "C"].map(|n| topo.add_switch(n));
    let [ha, hb, hc] = ["hA", "hB", "hC"].map(|n| topo.add_host(n));
    for (x, y) in [(a, b), (a, b), (b, c), (c, a), (ha, a), (hb, b), (hc, c)] {
        topo.connect(x, y, BitRate::from_gbps(40), SimDuration::from_us(1));
    }
    let routes = [
        ("A", "hC", 0),
        ("A", "hB", 1),
        ("B", "hC", 2),
        ("B", "hA", 2),
        ("C", "hB", 1),
    ]
    .map(|(node, dst, port)| format!(r#"{{"node":"{node}","dst":"{dst}","ports":[{port}]}}"#))
    .join(",");
    format!(
        concat!(
            r#"{{"op":"open","topo":{},"routes":[{}],"#,
            r#""flows":[{{"id":0,"src":"hA","dst":"hC","gbps":20,"ttl":16}},"#,
            r#"{{"id":1,"src":"hB","dst":"hA","gbps":20,"ttl":16}},"#,
            r#"{{"id":2,"src":"hC","dst":"hB","gbps":20,"ttl":16}}],"horizon_us":5000}}"#
        ),
        serde_json::to_string(&topo).expect("a topology document"),
        routes
    )
}

#[test]
fn parallel_links_are_decided_statically_iff_static_cbd_is_clean() {
    let mut rng = SimRng::new(5);
    let mut decided = [0; 2];
    let seeded = (0..40).map(|case| {
        let topo = fabric(&mut rng, 2 + case % 3);
        open_line(&mut rng, &topo)
    });
    for open in [triangle()].into_iter().chain(seeded) {
        let mut serve = ServeSession::new(ServeConfig::default());
        ask(&mut serve, &open);
        for at_us in [0, 40] {
            if at_us > 0 {
                ask(
                    &mut serve,
                    &format!(r#"{{"op":"advance","to_us":{at_us}}}"#),
                );
            }
            // A run with no flows, or one stopped on its deadlock, takes
            // no what-ifs.
            if ask(&mut serve, r#"{"op":"query","kind":"status"}"#)["finished"] == true {
                break;
            }
            let cbd = ask(&mut serve, r#"{"op":"query","kind":"cbd"}"#);
            let what_if = |kind: &str| {
                format!(r#"{{"op":"query","kind":"{kind}","updates":[],"window_us":{WINDOW_US}}}"#)
            };
            let doc = ask(&mut serve, &what_if("what_if"));
            let oracle = ask(&mut serve, &what_if("what_if_oracle"));
            let by_static = doc["decided_by"] == "static";
            assert_eq!(by_static, cbd["cbd"] == false, "{open}\n{cbd:?}\n{doc:?}");
            assert_eq!(doc["verdict"], oracle["verdict"], "{open} at {at_us} µs");
            decided[usize::from(by_static)] += 1;
        }
    }
    assert!(
        decided.iter().all(|&n| n >= 8),
        "{decided:?} probe/static decisions"
    );
}

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

use pfcsim::net::prelude::{FaultAction, NetStats, Verdict};
use pfcsim::session::{Control, ServeConfig, ServeSession};
use pfcsim::simcore::rng::SimRng;
use pfcsim::simcore::time::SimDuration;
use pfcsim::simcore::units::BitRate;
use pfcsim::topo::graph::{NodeKind, Topology};
use pfcsim::topo::ids::{FlowId, NodeId, Priority};
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

/// Switches A and B joined by a 40 G link (link 0) and a second link of
/// `gbps` (link 1); hosts hA and hA2 on A, hB and hB2 on B. Ports: A and
/// B reach each other on port 0 over link 0 and on port 1 over link 1.
fn pair(gbps: u64) -> Topology {
    let mut topo = Topology::new();
    let [a, b] = ["A", "B"].map(|n| topo.add_switch(n));
    let [ha, hb, hb2, ha2] = ["hA", "hB", "hB2", "hA2"].map(|n| topo.add_host(n));
    for (x, y, g) in [
        (a, b, 40),
        (a, b, gbps),
        (ha, a, 40),
        (hb, b, 40),
        (hb2, b, 40),
        (ha2, a, 40),
    ] {
        topo.connect(x, y, BitRate::from_gbps(g), SimDuration::from_us(1));
    }
    topo
}

/// The `open` line of a session on `topo` with `routes` (node, dst,
/// port) and `flows` (src, dst, Gbps), each with TTL 16.
fn open_pair(topo: &Topology, routes: &[(&str, &str, u16)], flows: &[(&str, &str, u64)]) -> String {
    let routes: Vec<String> = (routes.iter())
        .map(|(node, dst, port)| format!(r#"{{"node":"{node}","dst":"{dst}","ports":[{port}]}}"#))
        .collect();
    let flows: Vec<String> = (flows.iter().enumerate())
        .map(|(id, (src, dst, gbps))| {
            format!(r#"{{"id":{id},"src":"{src}","dst":"{dst}","gbps":{gbps},"ttl":16}}"#)
        })
        .collect();
    format!(
        r#"{{"op":"open","topo":{},"flows":[{}],"routes":[{}],"horizon_us":600}}"#,
        serde_json::to_string(topo).expect("a topology document"),
        flows.join(","),
        routes.join(",")
    )
}

/// The statistics and verdict of a session driven to its horizon.
fn finish(serve: &mut ServeSession) -> (NetStats, Verdict) {
    ask(serve, r#"{"op":"advance","to_us":600}"#);
    let session = serve.session().expect("an open session");
    let report = session.final_report().expect("a finished run");
    (report.stats.clone(), report.verdict.clone())
}

/// The two rates of a parallel pair: 40 G beside 10 G, and two 40 G.
const SECOND_LINK_GBPS: [u64; 2] = [10, 40];

/// One routing loop on each link of the pair, fed by its own host:
/// toward hB over link 0, toward hB2 over link 1. Each link pauses on
/// its own, so A→B has two pause logs, not one merged one.
#[test]
fn pause_logs_are_kept_per_link() {
    for gbps in SECOND_LINK_GBPS {
        let topo = pair(gbps);
        let routes = [
            ("A", "hB", 0),
            ("B", "hB", 0),
            ("A", "hB2", 1),
            ("B", "hB2", 1),
        ];
        let mut serve = ServeSession::new(ServeConfig::default());
        ask(
            &mut serve,
            &open_pair(&topo, &routes, &[("hA", "hB", 8), ("hA2", "hB2", 8)]),
        );
        let (stats, _) = finish(&mut serve);
        let (a, b) = (NodeId(0), NodeId(1));
        for (from, to) in [(a, b), (b, a)] {
            let logs: Vec<(u32, usize)> = (stats.pause.iter())
                .filter(|(k, _)| (k.from, k.to) == (from, to))
                .map(|(k, log)| (k.link, log.events.count()))
                .collect();
            assert_eq!(
                logs.iter().map(|l| l.0).collect::<Vec<_>>(),
                [0, 1],
                "{gbps} G: {from}→{to} {logs:?}"
            );
            assert!(logs.iter().all(|l| l.1 > 0), "{gbps} G: {logs:?}");
            // The node-pair accessor reads link 0 alone.
            let link0 = stats.pause_count(from, to, Priority::DEFAULT);
            assert_eq!(link0, logs[0].1, "{gbps} G");
        }
    }
}

/// A routing loop on link 1 alone: the run's verdict and the wire
/// witness name link 1 for both of the loop's channels.
#[test]
fn the_witness_names_the_stuck_link() {
    for gbps in SECOND_LINK_GBPS {
        let topo = pair(gbps);
        let open = open_pair(&topo, &[("A", "hB", 1), ("B", "hB", 1)], &[("hA", "hB", 8)]);
        let mut serve = ServeSession::new(ServeConfig::default());
        ask(&mut serve, &open);
        let doc = ask(
            &mut serve,
            r#"{"op":"query","kind":"what_if","updates":[],"window_us":500}"#,
        );
        let verdict = &doc["verdict"];
        assert!(verdict["deadlock"] == true, "{gbps} G: {doc:?}");
        let wire: Vec<(u64, u64, u64)> = (verdict["witness"].as_array().expect("a witness"))
            .iter()
            .map(|k| {
                let n = |f: &str| k[f].as_u64().unwrap_or_else(|| panic!("{f} in {k:?}"));
                (n("from"), n("to"), n("link"))
            })
            .collect();
        assert_eq!(wire, [(0, 1, 1), (1, 0, 1)], "{gbps} G");

        let Verdict::Deadlock { witness, .. } = finish(&mut serve).1 else {
            panic!("{gbps} G: the loop must deadlock");
        };
        let keys: Vec<(NodeId, NodeId, u32)> =
            witness.iter().map(|k| (k.from, k.to, k.link)).collect();
        assert_eq!(
            keys,
            [(NodeId(0), NodeId(1), 1), (NodeId(1), NodeId(0), 1)],
            "{gbps} G"
        );
    }
}

/// `link_down` with `"link":1` fails the second link only: the flow
/// routed over it loses packets to the dead link, the flow on link 0
/// delivers exactly what it delivers with no fault, and the fault
/// timeline names link 1.
#[test]
fn link_down_on_the_second_link_faults_that_link() {
    for gbps in SECOND_LINK_GBPS {
        let topo = pair(gbps);
        let open = open_pair(
            &topo,
            &[("A", "hB", 0), ("A", "hB2", 1)],
            &[("hA", "hB", 5), ("hA", "hB2", 5)],
        );
        let run = |fault: bool| {
            let mut serve = ServeSession::new(ServeConfig::default());
            ask(&mut serve, &open);
            ask(&mut serve, r#"{"op":"advance","to_us":100}"#);
            if fault {
                ask(&mut serve, r#"{"op":"link_down","a":"A","b":"B","link":1}"#);
            }
            finish(&mut serve).0
        };
        let (clean, faulted) = (run(false), run(true));
        let flow = |s: &NetStats, id| s.flows[&FlowId(id)].clone();
        assert!(flow(&faulted, 1).dropped_link_down > 0, "{gbps} G");
        assert!(
            flow(&faulted, 1).delivered_packets < flow(&clean, 1).delivered_packets,
            "{gbps} G"
        );
        assert_eq!(flow(&faulted, 0).dropped_link_down, 0, "{gbps} G");
        assert!(flow(&clean, 0).delivered_packets > 0);
        assert_eq!(
            flow(&faulted, 0).delivered_packets,
            flow(&clean, 0).delivered_packets,
            "{gbps} G: link 0 keeps delivering"
        );
        let downs: Vec<&FaultAction> = (faulted.faults.iter())
            .map(|r| &r.action)
            .filter(|a| matches!(a, FaultAction::LinkDown { .. }))
            .collect();
        assert!(
            matches!(downs[..], [FaultAction::LinkDown { link: 1, .. }]),
            "{gbps} G: {downs:?}"
        );
    }
}

/// A link number the pair does not have is a typed `config` error that
/// leaves the session as it was, and a malformed one a `protocol` error.
#[test]
fn a_link_that_does_not_exist_is_refused() {
    for gbps in SECOND_LINK_GBPS {
        let topo = pair(gbps);
        let mut serve = ServeSession::new(ServeConfig::default());
        ask(
            &mut serve,
            &open_pair(&topo, &[("A", "hB", 1)], &[("hA", "hB", 5)]),
        );
        let status = r#"{"op":"query","kind":"status"}"#;
        let before = ask(&mut serve, status)["state_digest"].clone();
        for (op, pair, link, kind, message) in [
            (
                "link_down",
                r#""a":"A","b":"B""#,
                "2",
                "config",
                "no link 2 between nodes 0 and 1",
            ),
            (
                "link_up",
                r#""a":"B","b":"A""#,
                "2",
                "config",
                "no link 2 between nodes 1 and 0",
            ),
            (
                "link_down",
                r#""a":"hA","b":"A""#,
                "1",
                "config",
                "no link 1 between nodes 2 and 0",
            ),
            (
                "link_down",
                r#""a":"A","b":"B""#,
                "4294967296",
                "config",
                "no link 4294967296 between nodes 0 and 1",
            ),
            (
                "link_down",
                r#""a":"A","b":"B""#,
                r#""1""#,
                "protocol",
                "\"link\" must be",
            ),
        ] {
            let line = format!(r#"{{"op":"{op}",{pair},"link":{link}}}"#);
            let (resp, _) = serve.handle_line(&line);
            let doc: Value = serde_json::from_str(&resp.expect("a response")).unwrap();
            assert!(doc["ok"] == false, "{line}: {doc:?}");
            assert_eq!(doc["error"]["kind"], kind, "{line}: {doc:?}");
            let got = doc["error"]["message"].as_str().unwrap_or_default();
            assert!(got.contains(message), "{line}: {got}");
        }
        assert_eq!(ask(&mut serve, status)["state_digest"], before, "{gbps} G");
        ask(&mut serve, r#"{"op":"link_down","a":"A","b":"B","link":1}"#);
        ask(&mut serve, r#"{"op":"link_up","a":"B","b":"A","link":1}"#);
    }
}

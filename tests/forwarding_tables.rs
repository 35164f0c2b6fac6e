//! `ForwardingTables` stores each entry as an id into its interned port
//! lists. Seen from outside it must be the dense `node × dst → ports`
//! table it replaced: every lookup and update answers as a plain dense
//! table does, and its document — binary and JSON — is, byte for byte,
//! the one the dense table's derived `Serialize` writes.

use pfcsim::prelude::*;
use pfcsim::simcore::rng::SimRng;
use pfcsim::simcore::snap::{decode_value, encode_value, fnv1a};
use pfcsim::topo::routing::ForwardingTables;
use serde::{Deserialize, Serialize};

/// The dense table, as the tables were stored and serialized before
/// their lists were interned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dense {
    tables: Vec<Vec<Vec<PortNo>>>,
}

impl Dense {
    fn of(ft: &ForwardingTables, nodes: usize, dsts: usize) -> Dense {
        let tables = (0..nodes)
            .map(|n| {
                (0..dsts)
                    .map(|d| ft.next_hops(NodeId(n as u32), NodeId(d as u32)).to_vec())
                    .collect()
            })
            .collect();
        Dense { tables }
    }

    fn next_hops(&self, node: NodeId, dst: NodeId) -> &[PortNo] {
        (self.tables.get(node.0 as usize))
            .and_then(|row| row.get(dst.0 as usize))
            .map_or(&[], Vec::as_slice)
    }

    fn replace(&mut self, node: NodeId, dst: NodeId, ports: Vec<PortNo>) -> Vec<PortNo> {
        let row = &mut self.tables[node.0 as usize];
        if row.len() <= dst.0 as usize {
            row.resize(dst.0 as usize + 1, Vec::new());
        }
        std::mem::replace(&mut row[dst.0 as usize], ports)
    }

    fn remove(&mut self, node: NodeId, dst: NodeId) {
        if let Some(p) = self.tables[node.0 as usize].get_mut(dst.0 as usize) {
            p.clear();
        }
    }

    fn entries(&self, node: NodeId) -> Vec<(NodeId, Vec<PortNo>)> {
        (self.tables[node.0 as usize].iter().enumerate())
            .filter(|(_, p)| !p.is_empty())
            .map(|(d, p)| (NodeId(d as u32), p.clone()))
            .collect()
    }
}

fn snap(v: &impl Serialize) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

fn decode(bytes: &[u8]) -> ForwardingTables {
    let mut pos = 0;
    let v = decode_value(bytes, &mut pos).expect("a document");
    assert_eq!(pos, bytes.len(), "one document");
    ForwardingTables::from_value(&v).expect("tables")
}

/// Every observable of `ft` agrees with `dense`, past each row's end
/// and past the last row included.
fn assert_same(ft: &ForwardingTables, dense: &Dense, step: usize) {
    let nodes = dense.tables.len();
    let width = dense.tables.iter().map(Vec::len).max().unwrap_or(0);
    for n in 0..nodes as u32 + 2 {
        for d in 0..width as u32 + 2 {
            let (node, dst) = (NodeId(n), NodeId(d));
            assert_eq!(
                ft.next_hops(node, dst),
                dense.next_hops(node, dst),
                "step {step}: next_hops({node}, {dst})"
            );
            for f in 0..3 {
                let flow = FlowId(f * 7 + d);
                let want = (!dense.next_hops(node, dst).is_empty()).then(|| {
                    let hops = dense.next_hops(node, dst);
                    hops[ecmp_index(flow, node, hops.len())]
                });
                assert_eq!(ft.select(node, dst, flow), want, "step {step}: select");
            }
        }
        if (n as usize) < nodes {
            let got: Vec<(NodeId, Vec<PortNo>)> = (ft.entries(NodeId(n)))
                .map(|(d, p)| (d, p.to_vec()))
                .collect();
            assert_eq!(got, dense.entries(NodeId(n)), "step {step}: entries({n})");
        }
    }
    assert_eq!(snap(ft), snap(dense), "step {step}: document");
}

#[test]
fn seeded_updates_match_a_dense_table() {
    let b = fat_tree(4, LinkSpec::default());
    let n = b.topo.node_count();
    let mut ft = up_down_tables(&b.topo);
    let mut dense = Dense::of(&ft, n, n);
    assert_same(&ft, &dense, 0);
    let mut rng = SimRng::new(47);
    for step in 1..=1500 {
        let node = NodeId(rng.gen_range(n as u64) as u32);
        // Now and then past the row's end, which grows the row.
        let dst = NodeId(rng.gen_range(n as u64 + 6) as u32);
        // Few distinct lists, so most updates reuse an interned one.
        let len = rng.gen_range(4) as usize;
        let ports: Vec<PortNo> = (0..len).map(|_| PortNo(rng.gen_range(4) as u16)).collect();
        match rng.gen_range(4) {
            0 => {
                ft.set(node, dst, ports.clone());
                dense.replace(node, dst, ports);
            }
            1 | 2 => {
                let got = ft.replace(node, dst, ports.clone());
                let want = dense.replace(node, dst, ports);
                assert_eq!(got, want, "step {step}: replace({node}, {dst})");
            }
            _ => {
                ft.remove(node, dst);
                dense.remove(node, dst);
            }
        }
        assert_eq!(
            ft.next_hops(node, dst),
            dense.next_hops(node, dst),
            "step {step}"
        );
        if step % 50 == 0 {
            assert_same(&ft, &dense, step);
        }
    }
    assert_same(&ft, &dense, 1501);
}

#[test]
fn replacing_back_restores_the_tables_exactly() {
    let b = leaf_spine(2, 4, 2, LinkSpec::default());
    let mut ft = shortest_path_tables(&b.topo);
    let before = snap(&ft);
    let (leaf, dst) = (b.switches[0], b.hosts[3]);
    let first = ft.replace(leaf, dst, vec![PortNo(3)]);
    let second = ft.replace(leaf, dst, vec![PortNo(2), PortNo(1)]);
    assert_eq!(second, [PortNo(3)]);
    ft.set(leaf, dst, second);
    ft.set(leaf, dst, first);
    assert_eq!(snap(&ft), before);
}

/// The shipped routings on every builder, each with a two-switch loop
/// installed, write the dense table's document, and read it back to it.
/// The documents' digests were recorded from the dense table's derived
/// `Serialize`, so they check the lists themselves, not only the shape.
#[test]
fn built_tables_write_the_dense_document() {
    let spec = LinkSpec::default();
    let fabrics = [
        (
            "ring(4)",
            ring(4, spec),
            [0x1a0a_e744_f400_0b88, 0x4d8b_dad0_2b6b_f36c],
        ),
        (
            "square",
            square(spec),
            [0x1a0a_e744_f400_0b88, 0x4d8b_dad0_2b6b_f36c],
        ),
        (
            "leaf_spine",
            leaf_spine(2, 2, 2, spec),
            [0xa01e_c240_cea7_1f76, 0x4920_eb20_c0a9_bee6],
        ),
        (
            "fat_tree(4)",
            fat_tree(4, spec),
            [0xde98_4681_9988_0fd0, 0xf432_4f56_e730_7a50],
        ),
        (
            "fat_tree(8)",
            fat_tree(8, spec),
            [0x6bb6_e0d3_8472_7532, 0x9fcc_b32e_2409_2c32],
        ),
    ];
    for (name, b, digests) in fabrics {
        let topo = &b.topo;
        let n = topo.node_count();
        let s = b.switches[0];
        let peer = (topo.ports(s).iter())
            .map(|p| p.peer)
            .find(|&p| topo.node(p).kind == NodeKind::Switch)
            .expect("a switch neighbour");
        let routings = [
            ("shortest", shortest_path_tables(topo)),
            ("up/down", up_down_tables(topo)),
        ];
        for ((routing, mut ft), digest) in routings.into_iter().zip(digests) {
            install_cycle_route(topo, &mut ft, &[s, peer], b.hosts[b.hosts.len() - 1]);
            let dense = Dense::of(&ft, n, n);
            let bytes = snap(&ft);
            assert!(bytes == snap(&dense), "{name} {routing}: binary document");
            assert_eq!(fnv1a(&bytes), digest, "{name} {routing}: document digest");
            assert_eq!(
                serde_json::to_string(&ft).expect("json"),
                serde_json::to_string(&dense).expect("json"),
                "{name} {routing}: JSON document"
            );
            assert!(
                snap(&decode(&bytes)) == bytes,
                "{name} {routing}: round trip"
            );
        }
    }
}

#[test]
fn ragged_rows_round_trip() {
    let p = |ports: &[u16]| ports.iter().map(|&x| PortNo(x)).collect::<Vec<_>>();
    let dense = Dense {
        tables: vec![
            vec![],
            vec![p(&[1])],
            vec![p(&[]), p(&[2, 0]), p(&[]), p(&[1])],
            vec![p(&[2, 0]), p(&[0, 2])],
        ],
    };
    let bytes = snap(&dense);
    let ft = decode(&bytes);
    assert!(snap(&ft) == bytes, "binary round trip");
    assert_eq!(ft.next_hops(NodeId(2), NodeId(1)), p(&[2, 0]).as_slice());
    assert_eq!(ft.next_hops(NodeId(3), NodeId(1)), p(&[0, 2]).as_slice());
    assert!(ft.next_hops(NodeId(0), NodeId(0)).is_empty());
    assert!(ft.next_hops(NodeId(2), NodeId(4)).is_empty());
    let json = serde_json::to_string(&dense).expect("json");
    let ft: ForwardingTables = serde_json::from_str(&json).expect("tables");
    assert_eq!(serde_json::to_string(&ft).expect("json"), json);
    assert_eq!(
        format!("{ft:?}"),
        format!("{dense:?}").replace("Dense", "ForwardingTables")
    );
}

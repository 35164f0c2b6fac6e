//! The topology graph: hosts, switches, and full-duplex links.
//!
//! A [`Topology`] is a static description consumed by the routing layer and
//! by the `pfcsim-net` simulator, which instantiates one switch/host model
//! per node and two directed channels per link.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::time::SimDuration;
use pfcsim_simcore::units::BitRate;

use crate::ids::{LinkId, NodeId, PortNo};

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host (traffic source/sink; one NIC port in this model).
    Host,
    /// A switch (forwards, runs PFC).
    Switch,
}

/// A node record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Dense id.
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Human-readable label for reports ("A", "tor3", "h12"…).
    pub name: String,
    /// Topology tier for tiered policies: 0 = host, 1 = ToR/leaf,
    /// 2 = aggregation/spine, 3 = core. `None` for tierless topologies.
    pub tier: Option<u8>,
}

/// A full-duplex link between two nodes (symmetric rate and delay).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Dense id.
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Port used on `a`.
    pub a_port: PortNo,
    /// Port used on `b`.
    pub b_port: PortNo,
    /// Line rate per direction.
    pub rate: BitRate,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

/// A port as seen from its owning node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortRef {
    /// Local port number.
    pub port: PortNo,
    /// Link this port attaches.
    pub link: LinkId,
    /// Node at the other end.
    pub peer: NodeId,
    /// Port number at the other end.
    pub peer_port: PortNo,
}

/// An immutable network topology.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Per node, ports in attachment order.
    ports: Vec<Vec<PortRef>>,
}

impl Topology {
    /// Empty topology; use the `add_*` builders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host node; returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name, Some(0))
    }

    /// Add a switch node; returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name, None)
    }

    /// Add a switch with an explicit tier (1 = leaf … 3 = core).
    pub fn add_switch_tiered(&mut self, name: impl Into<String>, tier: u8) -> NodeId {
        self.add_node(NodeKind::Switch, name, Some(tier))
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>, tier: Option<u8>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
            tier,
        });
        self.ports.push(Vec::new());
        id
    }

    /// Connect two nodes with a full-duplex link; returns its id.
    ///
    /// # Panics
    /// Panics on self-loops or unknown nodes. Parallel links are allowed
    /// (each gets its own ports).
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate: BitRate, delay: SimDuration) -> LinkId {
        assert!(a != b, "self-loop links are not allowed");
        assert!((a.0 as usize) < self.nodes.len(), "unknown node {a}");
        assert!((b.0 as usize) < self.nodes.len(), "unknown node {b}");
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        let a_port = PortNo(u16::try_from(self.ports[a.0 as usize].len()).expect("too many ports"));
        let b_port = PortNo(u16::try_from(self.ports[b.0 as usize].len()).expect("too many ports"));
        self.links.push(Link {
            id,
            a,
            b,
            a_port,
            b_port,
            rate,
            delay,
        });
        self.ports[a.0 as usize].push(PortRef {
            port: a_port,
            link: id,
            peer: b,
            peer_port: b_port,
        });
        self.ports[b.0 as usize].push(PortRef {
            port: b_port,
            link: id,
            peer: a,
            peer_port: a_port,
        });
        id
    }

    /// All nodes, id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Ports of `node` in attachment order.
    pub fn ports(&self, node: NodeId) -> &[PortRef] {
        &self.ports[node.0 as usize]
    }

    /// The port on `node` that faces `peer`, if any (first match for
    /// parallel links).
    pub fn port_towards(&self, node: NodeId, peer: NodeId) -> Option<PortRef> {
        self.ports[node.0 as usize]
            .iter()
            .copied()
            .find(|p| p.peer == peer)
    }

    /// Iterator over host ids.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
    }

    /// Iterator over switch ids.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| n.id)
    }

    /// Find a node by its label.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Check every structural invariant the rest of the workspace indexes
    /// by. Total: a document from outside (an inline `open` topology, a
    /// checkpoint) is checked here before anything else reads it, so no
    /// id is used as an index before it is known to be in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports.len() != self.nodes.len() {
            return Err(format!(
                "{} port lists for {} nodes",
                self.ports.len(),
                self.nodes.len()
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.0 as usize != i {
                return Err(format!("node id {} at index {i}", n.id));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.id.0 as usize != i {
                return Err(format!("link id {} at index {i}", l.id));
            }
            if l.a == l.b {
                return Err(format!("{}: self-loop on {}", l.id, l.a));
            }
            if l.rate.is_zero() {
                return Err(format!("{}: zero rate", l.id));
            }
            // Each end's port record says exactly what the link says.
            for (node, port, peer, peer_port) in [
                (l.a, l.a_port, l.b, l.b_port),
                (l.b, l.b_port, l.a, l.a_port),
            ] {
                let record = self
                    .ports
                    .get(node.0 as usize)
                    .ok_or_else(|| format!("{}: unknown node {node}", l.id))?
                    .get(port.0 as usize)
                    .ok_or_else(|| format!("{}: missing port {port} on {node}", l.id))?;
                let want = PortRef {
                    port,
                    link: l.id,
                    peer,
                    peer_port,
                };
                if *record != want {
                    return Err(format!("{}: inconsistent port record on {node}", l.id));
                }
            }
        }
        // And every port record is an end of the link it names (which the
        // loop above then checked field by field).
        for (n, ports) in self.nodes.iter().zip(&self.ports) {
            for (i, p) in ports.iter().enumerate() {
                let here = (n.id, PortNo(i as u16));
                let attached = self
                    .links
                    .get(p.link.0 as usize)
                    .is_some_and(|l| (l.a, l.a_port) == here || (l.b, l.b_port) == here);
                if p.port.0 as usize != i || !attached {
                    return Err(format!("port {i} on {}: not an end of {}", n.name, p.link));
                }
            }
            if n.kind == NodeKind::Host && ports.len() > 1 {
                return Err(format!("host {} has multiple ports", n.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> BitRate {
        BitRate::from_gbps(40)
    }
    fn delay() -> SimDuration {
        SimDuration::from_us(1)
    }

    #[test]
    fn build_small_topology() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let l1 = t.connect(h1, s1, rate(), delay());
        let l2 = t.connect(s1, s2, rate(), delay());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node(h1).kind, NodeKind::Host);
        assert_eq!(t.link(l1).a, h1);
        assert_eq!(t.link(l2).rate, rate());
        assert_eq!(t.ports(s1).len(), 2);
        assert_eq!(t.ports(h1).len(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn port_numbering_is_attachment_order() {
        let mut t = Topology::new();
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        t.connect(s1, s2, rate(), delay());
        t.connect(s1, s3, rate(), delay());
        let ports = t.ports(s1);
        assert_eq!(ports[0].port, PortNo(0));
        assert_eq!(ports[0].peer, s2);
        assert_eq!(ports[1].port, PortNo(1));
        assert_eq!(ports[1].peer, s3);
        assert_eq!(t.port_towards(s1, s3).unwrap().port, PortNo(1));
        assert_eq!(t.port_towards(s2, s1).unwrap().port, PortNo(0));
        assert!(t.port_towards(s2, s3).is_none());
    }

    #[test]
    fn hosts_and_switches_iterators() {
        let mut t = Topology::new();
        t.add_host("h1");
        t.add_switch("s1");
        t.add_host("h2");
        assert_eq!(t.hosts().count(), 2);
        assert_eq!(t.switches().count(), 1);
        assert_eq!(t.find("h2"), Some(NodeId(2)));
        assert_eq!(t.find("nope"), None);
    }

    #[test]
    fn parallel_links_get_distinct_ports() {
        let mut t = Topology::new();
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let l1 = t.connect(s1, s2, rate(), delay());
        let l2 = t.connect(s1, s2, rate(), delay());
        assert_ne!(l1, l2);
        assert_eq!(t.ports(s1).len(), 2);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut t = Topology::new();
        let s = t.add_switch("s");
        t.connect(s, s, rate(), delay());
    }

    #[test]
    fn validate_catches_multihomed_host() {
        let mut t = Topology::new();
        let h = t.add_host("h");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        t.connect(h, s1, rate(), delay());
        t.connect(h, s2, rate(), delay());
        assert!(t.validate().is_err());
    }

    /// A deserialized document can say anything: `validate` answers with
    /// an error, never an out-of-bounds index.
    #[test]
    fn validate_is_total_on_hostile_documents() {
        let mut t = Topology::new();
        let h = t.add_host("h");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        t.connect(h, s1, rate(), delay());
        t.connect(s1, s2, rate(), delay());
        t.validate().unwrap();

        let hostile = |edit: &dyn Fn(&mut Topology)| {
            let mut bad = t.clone();
            edit(&mut bad);
            bad.validate().unwrap_err()
        };
        assert!(hostile(&|t| t.links[0].rate = BitRate::ZERO).contains("l0: zero rate"));
        assert!(hostile(&|t| t.links[0].a = NodeId(99)).contains("l0: unknown node"));
        assert!(hostile(&|t| t.links[1].b = s1).contains("l1: self-loop"));
        assert!(hostile(&|t| t.links[1].a_port = PortNo(7)).contains("l1: missing port"));
        assert!(hostile(&|t| {
            t.ports.pop();
        })
        .contains("2 port lists for 3 nodes"));
        assert!(hostile(&|t| t.ports[1][0].peer = NodeId(99)).contains("inconsistent"));
        assert!(hostile(&|t| t.ports[1][0].peer_port = PortNo(9)).contains("inconsistent"));
        // A port no link knows about, naming a link that does not exist.
        let stray = PortRef {
            port: PortNo(1),
            link: LinkId(99),
            peer: NodeId(99),
            peer_port: PortNo(0),
        };
        assert!(hostile(&|t| t.ports[2].push(stray)).contains("not an end of l99"));
    }
}

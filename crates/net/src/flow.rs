//! Flow specifications and traffic demand models.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::graph::{PortRef, Topology};
use pfcsim_topo::ids::{FlowId, NodeId, Priority};
use pfcsim_topo::routing::{route_hops, ForwardingTables, PinnedPath};

/// How much and how fast a flow wants to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Demand {
    /// Infinite backlog: always has a packet ready, sends whenever the NIC
    /// lets it (the paper's "UDP flows with infinite traffic demand").
    Infinite,
    /// Constant bit rate: injects one packet every `size·8/rate` into the
    /// NIC queue (Case 1's fixed-rate injector).
    Cbr(BitRate),
    /// Constant bit rate until `total` bytes have been injected.
    CbrFinite {
        /// Injection rate.
        rate: BitRate,
        /// Total bytes to inject.
        total: Bytes,
    },
    /// Poisson packet arrivals averaging the given rate (exponential
    /// inter-arrival times; the memoryless burstiness of classic traffic
    /// models).
    Poisson(BitRate),
    /// Markov-modulated on–off source: bursts at `peak` during
    /// exponentially-distributed ON periods, silent during OFF periods.
    /// Average rate = `peak · mean_on/(mean_on + mean_off)`.
    OnOff {
        /// Burst rate while ON.
        peak: BitRate,
        /// Mean ON duration.
        mean_on: SimDuration,
        /// Mean OFF duration.
        mean_off: SimDuration,
    },
    /// Infinite demand governed by DCQCN congestion control (starts at
    /// line rate, adjusts on CNPs).
    Dcqcn,
    /// Infinite demand governed by TIMELY congestion control (starts at
    /// line rate, adjusts on RTT gradients).
    Timely,
}

impl Demand {
    /// True for the tick-driven models that feed the host backlog.
    pub fn is_tick_driven(&self) -> bool {
        matches!(
            self,
            Demand::Cbr(_) | Demand::CbrFinite { .. } | Demand::Poisson(_) | Demand::OnOff { .. }
        )
    }
}

/// How the flow is routed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteKind {
    /// Follow the simulation's forwarding tables (ECMP-hashed per flow).
    Tables,
    /// A pinned static path (the paper "configure\[s\] static routing on all
    /// switches so that flow paths are enforced").
    Pinned(PinnedPath),
}

/// A flow to simulate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Identifier (unique per simulation).
    pub id: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Traffic class.
    pub priority: Priority,
    /// Demand model.
    pub demand: Demand,
    /// Packet size; `None` uses the simulation default.
    pub packet_size: Option<Bytes>,
    /// Initial TTL (the paper's testbed used 16; IP default is 64).
    pub ttl: u8,
    /// Start of injection.
    pub start: SimTime,
    /// End of injection (`None` = never stops on its own).
    pub stop: Option<SimTime>,
    /// Routing.
    pub route: RouteKind,
}

impl FlowSpec {
    /// A table-routed, infinite-demand flow with defaults (priority 3,
    /// TTL 64, starts at t = 0).
    pub fn infinite(id: u32, src: NodeId, dst: NodeId) -> Self {
        FlowSpec {
            id: FlowId(id),
            src,
            dst,
            priority: Priority::DEFAULT,
            demand: Demand::Infinite,
            packet_size: None,
            ttl: 64,
            start: SimTime::ZERO,
            stop: None,
            route: RouteKind::Tables,
        }
    }

    /// A table-routed CBR flow with defaults.
    pub fn cbr(id: u32, src: NodeId, dst: NodeId, rate: BitRate) -> Self {
        FlowSpec {
            demand: Demand::Cbr(rate),
            ..FlowSpec::infinite(id, src, dst)
        }
    }

    /// A table-routed Poisson flow with defaults.
    pub fn poisson(id: u32, src: NodeId, dst: NodeId, rate: BitRate) -> Self {
        FlowSpec {
            demand: Demand::Poisson(rate),
            ..FlowSpec::infinite(id, src, dst)
        }
    }

    /// A table-routed TIMELY-controlled flow with defaults.
    pub fn timely(id: u32, src: NodeId, dst: NodeId) -> Self {
        FlowSpec {
            demand: Demand::Timely,
            ..FlowSpec::infinite(id, src, dst)
        }
    }

    /// A table-routed on-off flow with defaults.
    pub fn on_off(
        id: u32,
        src: NodeId,
        dst: NodeId,
        peak: BitRate,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> Self {
        FlowSpec {
            demand: Demand::OnOff {
                peak,
                mean_on,
                mean_off,
            },
            ..FlowSpec::infinite(id, src, dst)
        }
    }

    /// Builder: set the pinned path.
    pub fn pinned(mut self, path: Vec<NodeId>) -> Self {
        self.route = RouteKind::Pinned(PinnedPath { nodes: path });
        self
    }

    /// Builder: set initial TTL.
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        assert!(ttl > 0, "TTL must be positive");
        self.ttl = ttl;
        self
    }

    /// Builder: set priority.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder: set packet size.
    pub fn with_packet_size(mut self, s: Bytes) -> Self {
        self.packet_size = Some(s);
        self
    }

    /// Builder: set start time.
    pub fn starting_at(mut self, t: SimTime) -> Self {
        self.start = t;
        self
    }

    /// Builder: set stop time.
    pub fn stopping_at(mut self, t: SimTime) -> Self {
        self.stop = Some(t);
        self
    }

    /// The `(node, egress port)` hops this flow's packets take, host to
    /// host, capped at `max_hops` switch hops (a looping or black-holed
    /// walk ends where it stopped). At each node the egress is the pinned
    /// one, else the ECMP pick from `tables`: the datapath's rule
    /// (`Datapath::next_hop`), whose pin rows are [`PinnedPath::egress`].
    pub fn hops<'a>(
        &'a self,
        topo: &'a Topology,
        tables: &'a ForwardingTables,
        max_hops: usize,
    ) -> impl Iterator<Item = (NodeId, PortRef)> + 'a {
        route_hops(topo, self.src, self.dst, max_hops, |node| {
            let pinned = match &self.route {
                RouteKind::Pinned(p) => p.egress(topo, node),
                RouteKind::Tables => None,
            };
            (pinned.map(|out| out.port)).or_else(|| tables.select(node, self.dst, self.id))
        })
    }

    /// Refuse a flow whose source, destination or pinned path names a
    /// node `topo` does not have.
    pub(crate) fn check_nodes(&self, topo: &Topology) -> Result<(), Error> {
        let pinned: &[NodeId] = match &self.route {
            RouteKind::Pinned(path) => &path.nodes,
            RouteKind::Tables => &[],
        };
        match [self.src, self.dst]
            .iter()
            .chain(pinned)
            .find(|n| n.0 as usize >= topo.node_count())
        {
            Some(n) => Err(Error::Config(format!("unknown node {}", n.0))),
            None => Ok(()),
        }
    }

    /// CBR inter-packet gap for `size`-byte packets, if this is a CBR flow.
    pub fn cbr_interval(&self, size: Bytes) -> Option<SimDuration> {
        match self.demand {
            Demand::Cbr(rate) | Demand::CbrFinite { rate, .. } => Some(rate_interval(rate, size)),
            _ => None,
        }
    }
}

/// Interval between packets of `size` at `rate` (exact, rounded up).
pub fn rate_interval(rate: BitRate, size: Bytes) -> SimDuration {
    rate.serialization_time(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let f = FlowSpec::cbr(1, NodeId(0), NodeId(1), BitRate::from_gbps(5))
            .with_ttl(16)
            .with_priority(Priority::new(4))
            .with_packet_size(Bytes::new(500))
            .starting_at(SimTime::from_us(10))
            .stopping_at(SimTime::from_ms(1));
        assert_eq!(f.ttl, 16);
        assert_eq!(f.priority, Priority(4));
        assert_eq!(f.packet_size, Some(Bytes::new(500)));
        assert_eq!(f.start, SimTime::from_us(10));
        assert_eq!(f.stop, Some(SimTime::from_ms(1)));
    }

    #[test]
    fn cbr_interval_math() {
        // 1000 B at 5 Gbps = 8000 bits / 5e9 = 1.6 us.
        let f = FlowSpec::cbr(0, NodeId(0), NodeId(1), BitRate::from_gbps(5));
        assert_eq!(
            f.cbr_interval(Bytes::new(1000)),
            Some(SimDuration::from_ns(1600))
        );
        let inf = FlowSpec::infinite(0, NodeId(0), NodeId(1));
        assert_eq!(inf.cbr_interval(Bytes::new(1000)), None);
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        let _ = FlowSpec::infinite(0, NodeId(0), NodeId(1)).with_ttl(0);
    }
}

//! Measurement collection: pause logs per directed link, occupancy series
//! per ingress queue, per-flow counters.
//!
//! A pause log is keyed by its channel, `(from, to, priority, link)`:
//! `link` tells apart the links joining one pair of nodes (see
//! [`PauseKey`]). The node-pair accessors ([`NetStats::pause_log`],
//! [`NetStats::pause_count`], [`NetStats::paused_at`]) read link 0, the
//! only link of a pair joined by one.

use core::fmt;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pfcsim_simcore::series::{EventLog, IntervalLog, ThroughputMeter, TimeSeries};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::ids::{FlowId, NodeId, Priority};

use crate::bdg::RxQueue;

/// Identifies the *paused direction* of a link: the channel carrying data
/// `from → to`, paused by `to` (the receiver) for one priority. This is the
/// "pause event at link Lᵢ" unit of the paper's Figures 3(c)/4(c)/5(b).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PauseKey {
    /// Upstream transmitter being paused.
    pub from: NodeId,
    /// Downstream receiver issuing the pause.
    pub to: NodeId,
    /// Paused class.
    pub priority: Priority,
    /// Which of the links joining `from` and `to` carries the channel:
    /// its number among them in link order (`Topology::link_between`).
    /// Left out of every document, and of `Debug`, when 0.
    #[serde(default, skip_serializing_if = "crate::stats::is_zero")]
    pub link: u32,
}

/// Whether a link number is 0: the `skip_serializing_if` predicate that
/// keeps documents of fabrics without parallel links free of `link`.
pub(crate) fn is_zero(link: &u32) -> bool {
    *link == 0
}

/// The derived text, plus `link` when it is not 0.
impl fmt::Debug for PauseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("PauseKey");
        d.field("from", &self.from)
            .field("to", &self.to)
            .field("priority", &self.priority);
        if self.link != 0 {
            d.field("link", &self.link);
        }
        d.finish()
    }
}

/// Pause history of one directed (link, priority).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PauseLog {
    /// One entry per PAUSE frame sent (dense dots in the paper's plots).
    pub events: EventLog,
    /// Paused spans: open at XOFF, closed at XON. A span still open at the
    /// end of the run means the link never resumed — in a deadlock, spans
    /// on every cycle link stay open forever.
    pub intervals: IntervalLog,
}

/// Per-flow counters and meters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets handed to the source NIC.
    pub injected_packets: u64,
    /// Bytes handed to the source NIC.
    pub injected_bytes: Bytes,
    /// Packets received by the destination host.
    pub delivered_packets: u64,
    /// Bytes received by the destination host.
    pub delivered_bytes: Bytes,
    /// Packets dropped by TTL expiry.
    pub dropped_ttl: u64,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets dropped on overflow (shared buffer or lossy-class tail).
    pub dropped_overflow: u64,
    /// Packets destroyed by reactive deadlock recovery.
    pub dropped_recovery: u64,
    /// Packets destroyed by link failures and switch reboots.
    pub dropped_link_down: u64,
    /// Packets dropped past the lossless headroom while PFC signalling was
    /// lost or delayed.
    pub dropped_pause_loss: u64,
    /// Packets generated but never transmitted by the source NIC (CBR
    /// backlog remaining when the flow stopped or the run ended).
    pub unsent_packets: u64,
    /// Bytes never transmitted by the source NIC.
    pub unsent_bytes: Bytes,
    /// Packets still buffered inside the network when the run ended
    /// (stuck in a deadlock, or simply in transit at the horizon).
    pub stuck_packets: u64,
    /// Bytes still buffered inside the network when the run ended.
    pub stuck_bytes: Bytes,
    /// Delivery meter (for goodput).
    pub meter: ThroughputMeter,
    /// ECN-marked packets delivered (DCQCN).
    pub ecn_marked: u64,
}

/// Everything measured during a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Pause history per (directed link, priority).
    pub pause: BTreeMap<PauseKey, PauseLog>,
    /// Occupancy time series for watched ingress queues: every switch
    /// ingress × every priority in use, unless the run narrowed the set
    /// with `NetSim::watch_only`.
    pub occupancy: BTreeMap<RxQueue, TimeSeries>,
    /// Per-flow occupancy inside watched ingress queues (enabled by
    /// `SimConfig::track_per_flow_occupancy`).
    pub flow_occupancy: BTreeMap<(RxQueue, FlowId), TimeSeries>,
    /// Per-flow counters.
    pub flows: BTreeMap<FlowId, FlowStats>,
    /// Global drop counters.
    pub drops_ttl: u64,
    /// Drops from missing routes.
    pub drops_no_route: u64,
    /// Drops from total-buffer exhaustion (should stay 0 in lossless runs).
    pub drops_overflow: u64,
    /// Flood replicas created on forwarding-table misses.
    pub flood_replicas: u64,
    /// Flood copies that reached a host other than their destination and
    /// were discarded by the NIC.
    pub misdelivered: u64,
    /// Packets destroyed by reactive deadlock recovery (port drains).
    pub drops_recovery: u64,
    /// Number of recovery interventions performed.
    pub recovery_actions: u64,
    /// Packets destroyed by link failures and switch reboots.
    pub drops_link_down: u64,
    /// Packets dropped past the lossless headroom under lost/late PFC.
    pub drops_pause_loss: u64,
    /// PFC frames destroyed by an armed loss process.
    pub pause_frames_lost: u64,
    /// Timeline of applied faults (see [`crate::faults`]).
    pub faults: Vec<crate::faults::FaultRecord>,
    /// PAUSE frames sent network-wide.
    pub pause_frames: u64,
    /// RESUME frames sent network-wide.
    pub resume_frames: u64,
    /// CNPs generated (DCQCN).
    pub cnps: u64,
    /// Per-packet lifecycle events for traced flows (see
    /// [`crate::sim::NetSim::trace_flows`]).
    pub trace: Vec<crate::trace::TraceEvent>,
}

impl NetStats {
    /// Pause log for a channel on link 0 of `from`–`to`, if any pause
    /// ever occurred on it.
    pub fn pause_log(&self, from: NodeId, to: NodeId, priority: Priority) -> Option<&PauseLog> {
        let key = PauseKey {
            from,
            to,
            priority,
            link: 0,
        };
        self.pause.get(&key)
    }

    /// Count of PAUSE frames on one channel (link 0 of `from`–`to`).
    pub fn pause_count(&self, from: NodeId, to: NodeId, priority: Priority) -> usize {
        self.pause_log(from, to, priority)
            .map_or(0, |l| l.events.count())
    }

    /// True iff the channel on link 0 of `from`–`to` is paused at `t`
    /// (open interval or covering span).
    pub fn paused_at(&self, from: NodeId, to: NodeId, priority: Priority, t: SimTime) -> bool {
        self.pause_log(from, to, priority)
            .is_some_and(|l| l.intervals.covers(t))
    }

    /// Channels whose pause interval never closed (still paused at run end).
    pub fn permanently_paused(&self) -> Vec<PauseKey> {
        self.pause
            .iter()
            .filter(|(_, log)| log.intervals.is_open())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Mutable flow stats accessor, creating on first use.
    pub fn flow_mut(&mut self, id: FlowId) -> &mut FlowStats {
        self.flows.entry(id).or_default()
    }
}

/// Push each `(key, value)` into `map`'s series for `key`, the keys
/// ascending: one walk alongside the map finds every series it already
/// holds, where a search per key would descend the tree for each. A key
/// the map lacks gets a `new` series through the entry path, and the
/// walk resumes after it.
pub(crate) fn push_in_order<K: Ord + Copy, S, V>(
    map: &mut BTreeMap<K, S>,
    items: impl IntoIterator<Item = (K, V)>,
    mut new: impl FnMut() -> S,
    mut push: impl FnMut(&mut S, V),
) {
    use std::ops::Bound::{Excluded, Unbounded};
    let mut items = items.into_iter().peekable();
    let mut walk = map.range_mut((Unbounded::<K>, Unbounded));
    loop {
        while let Some(&(key, _)) = items.peek() {
            match walk.find(|(k, _)| **k >= key) {
                Some((k, series)) if *k == key => {
                    let (_, v) = items.next().expect("peeked");
                    push(series, v);
                }
                _ => break,
            }
        }
        let Some((key, v)) = items.next() else {
            return;
        };
        push(map.entry(key).or_insert_with(&mut new), v);
        walk = map.range_mut((Excluded(key), Unbounded));
    }
}

/// `x` after `k` more periods that each add what the last one did (`x`
/// was `at_mark` one period ago).
pub(crate) fn extend_count(x: &mut u64, at_mark: u64, k: u64) {
    *x += k * (*x - at_mark);
}

/// [`extend_count`] for byte counters.
pub(crate) fn extend_bytes(x: &mut Bytes, at_mark: Bytes, k: u64) {
    *x = Bytes::new(x.get() + k * (x.get() - at_mark.get()));
}

impl FlowStats {
    /// The counters after `k` more periods like the one since they read
    /// `mark` (see `NetStats::extend_periods`).
    pub(crate) fn extend_periods(&mut self, mark: &FlowStats, k: u64, period: SimDuration) {
        let FlowStats {
            injected_packets,
            injected_bytes,
            delivered_packets,
            delivered_bytes,
            dropped_ttl,
            dropped_no_route,
            dropped_overflow,
            dropped_recovery,
            dropped_link_down,
            dropped_pause_loss,
            unsent_packets,
            unsent_bytes,
            stuck_packets,
            stuck_bytes,
            meter,
            ecn_marked,
        } = self;
        extend_count(injected_packets, mark.injected_packets, k);
        extend_bytes(injected_bytes, mark.injected_bytes, k);
        extend_count(delivered_packets, mark.delivered_packets, k);
        extend_bytes(delivered_bytes, mark.delivered_bytes, k);
        extend_count(dropped_ttl, mark.dropped_ttl, k);
        extend_count(dropped_no_route, mark.dropped_no_route, k);
        extend_count(dropped_overflow, mark.dropped_overflow, k);
        extend_count(dropped_recovery, mark.dropped_recovery, k);
        extend_count(dropped_link_down, mark.dropped_link_down, k);
        extend_count(dropped_pause_loss, mark.dropped_pause_loss, k);
        extend_count(unsent_packets, mark.unsent_packets, k);
        extend_bytes(unsent_bytes, mark.unsent_bytes, k);
        extend_count(stuck_packets, mark.stuck_packets, k);
        extend_bytes(stuck_bytes, mark.stuck_bytes, k);
        meter.extend_periods(&mark.meter, k, period);
        extend_count(ecn_marked, mark.ecn_marked, k);
    }
}

/// How far every counter and log of a [`NetStats`] had got at one
/// instant of a run: what [`NetStats::extend_periods`] repeats from.
#[derive(Debug, Clone)]
pub(crate) struct StatsMark {
    /// Per channel: PAUSE frames logged and pause-span edges.
    pause: BTreeMap<PauseKey, (usize, usize)>,
    occupancy: BTreeMap<RxQueue, usize>,
    flow_occupancy: BTreeMap<(RxQueue, FlowId), usize>,
    faults: usize,
    /// The network-wide counters, in [`NetStats::counters`] order.
    counters: [u64; 13],
}

impl NetStats {
    /// The network-wide counters in one fixed order.
    fn counters(&self) -> [u64; 13] {
        [
            self.drops_ttl,
            self.drops_no_route,
            self.drops_overflow,
            self.flood_replicas,
            self.misdelivered,
            self.drops_recovery,
            self.recovery_actions,
            self.drops_link_down,
            self.drops_pause_loss,
            self.pause_frames_lost,
            self.pause_frames,
            self.resume_frames,
            self.cnps,
        ]
    }

    /// Where every counter and log stands now.
    pub(crate) fn mark(&self) -> StatsMark {
        StatsMark {
            pause: (self.pause.iter())
                .map(|(k, l)| (*k, (l.events.count(), l.intervals.edges())))
                .collect(),
            occupancy: (self.occupancy.iter())
                .map(|(k, s)| (*k, s.len()))
                .collect(),
            flow_occupancy: (self.flow_occupancy.iter())
                .map(|(k, s)| (*k, s.len()))
                .collect(),
            faults: self.faults.len(),
            counters: self.counters(),
        }
    }

    /// The statistics of a run whose last period — from `mark` to now —
    /// repeats `k` more times: every counter grows by what the period
    /// added, and every log and series repeats the period's entries
    /// `period` apart. The caller has shown the run periodic, so a key
    /// present now was present at `mark`, and a pause span is open now
    /// iff it was open then.
    pub(crate) fn extend_periods(&mut self, mark: &StatsMark, k: u64, period: SimDuration) {
        let NetStats {
            pause,
            occupancy,
            flow_occupancy,
            flows,
            drops_ttl,
            drops_no_route,
            drops_overflow,
            flood_replicas,
            misdelivered,
            drops_recovery,
            recovery_actions,
            drops_link_down,
            drops_pause_loss,
            pause_frames_lost,
            faults,
            pause_frames,
            resume_frames,
            cnps,
            trace,
        } = self;
        for (key, log) in pause.iter_mut() {
            let (events, edges) = mark.pause.get(key).copied().unwrap_or_default();
            log.events.extend_periods(events, k, period);
            log.intervals.extend_periods(edges, k, period);
        }
        for (key, series) in occupancy.iter_mut() {
            series.extend_periods(mark.occupancy.get(key).copied().unwrap_or(0), k, period);
        }
        for (key, series) in flow_occupancy.iter_mut() {
            let from = mark.flow_occupancy.get(key).copied().unwrap_or(0);
            series.extend_periods(from, k, period);
        }
        // Filled when the run finishes, and never for a fast-forwarded
        // run's traced flows, which it has none of.
        debug_assert!(flows.is_empty() && trace.is_empty());
        let span = faults.len() - mark.faults;
        faults.reserve(span * k as usize);
        for j in 1..=k {
            for i in mark.faults..mark.faults + span {
                let mut record = faults[i].clone();
                record.at += period.saturating_mul(j);
                faults.push(record);
            }
        }
        let counters = [
            drops_ttl,
            drops_no_route,
            drops_overflow,
            flood_replicas,
            misdelivered,
            drops_recovery,
            recovery_actions,
            drops_link_down,
            drops_pause_loss,
            pause_frames_lost,
            pause_frames,
            resume_frames,
            cnps,
        ];
        for (x, at_mark) in counters.into_iter().zip(mark.counters) {
            extend_count(x, at_mark, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::ids::PortNo;

    /// Link 0 prints and serializes exactly as the key did before it
    /// had a link; any other link adds one member.
    #[test]
    fn link_zero_is_left_out() {
        let mut key = PauseKey {
            from: NodeId(0),
            to: NodeId(1),
            priority: Priority::DEFAULT,
            link: 0,
        };
        let derived = "PauseKey { from: NodeId(0), to: NodeId(1), priority: Priority(3) }";
        assert_eq!(format!("{key:?}"), derived);
        assert_eq!(
            serde_json::to_string(&key).unwrap(),
            r#"{"from":0,"to":1,"priority":3}"#
        );
        key.link = 2;
        assert_eq!(
            format!("{key:?}"),
            "PauseKey { from: NodeId(0), to: NodeId(1), priority: Priority(3), link: 2 }"
        );
        let json = serde_json::to_string(&key).unwrap();
        assert_eq!(json, r#"{"from":0,"to":1,"priority":3,"link":2}"#);
        assert_eq!(serde_json::from_str::<PauseKey>(&json).unwrap(), key);
    }

    #[test]
    fn pause_bookkeeping() {
        let mut s = NetStats::default();
        let key = PauseKey {
            from: NodeId(0),
            to: NodeId(1),
            priority: Priority::DEFAULT,
            link: 0,
        };
        let log = s.pause.entry(key).or_default();
        log.events.record(SimTime::from_us(1));
        log.intervals.open(SimTime::from_us(1));
        log.intervals.close(SimTime::from_us(2));
        log.events.record(SimTime::from_us(5));
        log.intervals.open(SimTime::from_us(5));

        assert_eq!(s.pause_count(NodeId(0), NodeId(1), Priority::DEFAULT), 2);
        assert!(s.paused_at(NodeId(0), NodeId(1), Priority::DEFAULT, SimTime::from_us(1)));
        assert!(!s.paused_at(NodeId(0), NodeId(1), Priority::DEFAULT, SimTime::from_us(3)));
        assert!(s.paused_at(
            NodeId(0),
            NodeId(1),
            Priority::DEFAULT,
            SimTime::from_us(99)
        ));
        assert_eq!(s.permanently_paused(), vec![key]);
        assert_eq!(s.pause_count(NodeId(1), NodeId(0), Priority::DEFAULT), 0);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let mut s = NetStats::default();
        let key = PauseKey {
            from: NodeId(0),
            to: NodeId(1),
            priority: Priority::DEFAULT,
            link: 0,
        };
        s.pause
            .entry(key)
            .or_default()
            .events
            .record(SimTime::from_us(3));
        s.flow_mut(FlowId(7)).injected_packets = 42;
        s.occupancy
            .entry(RxQueue {
                node: NodeId(1),
                port: PortNo(0),
                priority: Priority::DEFAULT,
            })
            .or_default()
            .push(SimTime::from_us(1), 10);
        let json = serde_json::to_string(&s).unwrap();
        let back: NetStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.flows[&FlowId(7)].injected_packets, 42);
        assert_eq!(back.pause[&key].events.count(), 1);
        assert_eq!(back.occupancy.len(), 1);
    }

    #[test]
    fn flow_stats_accessor_creates() {
        let mut s = NetStats::default();
        s.flow_mut(FlowId(3)).injected_packets += 1;
        assert_eq!(s.flows[&FlowId(3)].injected_packets, 1);
    }
}

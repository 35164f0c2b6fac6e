//! Sufficiency analysis: connects simulator measurements back to the
//! paper's claims about *when* a CBD actually becomes a deadlock.
//!
//! The paper's observations, encoded as checkable analyses:
//!
//! * Fig. 3: CBD present, pauses occur, yet some cycle links never pause —
//!   no deadlock possible ("no packet will be paused permanently").
//! * Fig. 4: all cycle links pause, overlap simultaneously, deadlock.
//! * Fig. 5 (zoomed): with a 2 Gbps limiter "four links are never paused
//!   simultaneously at packet level" — simultaneity of pause over the
//!   whole cycle is the proximate trigger.

use serde::{Deserialize, Serialize};

use pfcsim_net::stats::{NetStats, PauseKey};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_topo::ids::{NodeId, Priority};

/// Pause-overlap analysis of one dependency cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapAnalysis {
    /// The analysed channels, each with its own pause timeline.
    pub channels: Vec<PauseKey>,
    /// Per-channel PAUSE frame counts, same order as `channels`.
    pub pause_counts: Vec<usize>,
    /// Number of channels that were ever paused.
    pub channels_ever_paused: usize,
    /// Maximum number of cycle channels paused at one instant.
    pub max_simultaneous: usize,
    /// Total time during which *every* cycle channel was paused at once.
    pub all_paused_time: SimDuration,
    /// First instant at which all channels were simultaneously paused.
    pub first_all_paused: Option<SimTime>,
}

impl OverlapAnalysis {
    /// Whether the full-cycle simultaneous-pause precondition ever held.
    pub fn all_paused_simultaneously(&self) -> bool {
        self.first_all_paused.is_some()
    }
}

/// Analyse pause overlap on `cycle` (a ring of switches; channel `i` is
/// `cycle[i] → cycle[(i+1) % len]`, on link 0 of that pair) for one
/// priority, over `[0, end]`.
pub fn analyze_cycle_overlap(
    stats: &NetStats,
    cycle: &[NodeId],
    priority: Priority,
    end: SimTime,
) -> OverlapAnalysis {
    let channels: Vec<PauseKey> = (0..cycle.len())
        .map(|i| PauseKey {
            from: cycle[i],
            to: cycle[(i + 1) % cycle.len()],
            priority,
            link: 0,
        })
        .collect();
    analyze_channels_overlap(stats, &channels, end)
}

/// Analyse pause overlap on an explicit channel list (a verdict's
/// witness, say), over `[0, end]`. Two links joining one pair of nodes
/// are two channels with two timelines.
pub fn analyze_channels_overlap(
    stats: &NetStats,
    channels: &[PauseKey],
    end: SimTime,
) -> OverlapAnalysis {
    let mut pause_counts = Vec::with_capacity(channels.len());
    // Sweep events: (time, delta). Closing at `end` for open intervals.
    let mut events: Vec<(SimTime, i32)> = Vec::new();
    let mut ever = 0usize;
    for key in channels {
        match stats.pause.get(key) {
            Some(log) => {
                pause_counts.push(log.events.count());
                if log.events.count() > 0 {
                    ever += 1;
                }
                for &(start, stop) in log.intervals.intervals() {
                    let stop = stop.unwrap_or(end).min(end);
                    if stop > start {
                        events.push((start, 1));
                        events.push((stop, -1));
                    }
                }
            }
            None => pause_counts.push(0),
        }
    }
    // Sort by time; at equal times apply closes before opens so touching
    // intervals don't fake an overlap.
    events.sort_by_key(|&(t, d)| (t, d));
    let n = channels.len();
    let mut depth = 0i32;
    let mut max_simultaneous = 0usize;
    let mut all_paused_time = SimDuration::ZERO;
    let mut first_all_paused = None;
    let mut all_since: Option<SimTime> = None;
    for (t, d) in events {
        if d > 0 {
            depth += d;
            max_simultaneous = max_simultaneous.max(depth as usize);
            if depth as usize == n && all_since.is_none() {
                all_since = Some(t);
                first_all_paused.get_or_insert(t);
            }
        } else {
            if depth as usize == n {
                if let Some(since) = all_since.take() {
                    all_paused_time += t - since;
                }
            }
            depth += d;
        }
    }
    if let Some(since) = all_since {
        // Still fully paused at the end of the window.
        if end > since {
            all_paused_time += end - since;
        }
    }
    OverlapAnalysis {
        channels: channels.to_vec(),
        pause_counts,
        channels_ever_paused: ever,
        max_simultaneous,
        all_paused_time,
        first_all_paused,
    }
}

/// Pause blast radius: how far congestion propagated through the fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlastRadius {
    /// Distinct channels that ever paused.
    pub channels_paused: usize,
    /// Of those, channels between two switches (fabric damage) — host
    /// uplink pauses are the intended near-source back-pressure.
    pub fabric_channels_paused: usize,
    /// Pause onset order: (channel, first pause instant), earliest first.
    pub onset: Vec<(PauseKey, SimTime)>,
}

/// Measure the pause blast radius of a run. `is_switch` classifies node
/// ids (pass `|n| topo.node(n).kind == NodeKind::Switch`). A channel is a
/// [`PauseKey`]: two links joining one pair, or two priorities on one
/// link, are two channels.
pub fn blast_radius(stats: &NetStats, is_switch: impl Fn(NodeId) -> bool) -> BlastRadius {
    let mut onset: Vec<(PauseKey, SimTime)> = stats
        .pause
        .iter()
        .filter_map(|(k, log)| log.events.times().first().map(|&t| (*k, t)))
        .collect();
    onset.sort_by_key(|&(_, t)| t);
    let fabric = onset
        .iter()
        .filter(|(k, _)| is_switch(k.from) && is_switch(k.to))
        .count();
    BlastRadius {
        channels_paused: onset.len(),
        fabric_channels_paused: fabric,
        onset,
    }
}

/// One row of the paper's core argument: for a scenario, whether CBD was
/// present and whether deadlock actually formed. Accumulating these rows
/// over the case studies demonstrates "necessary but not sufficient".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SufficiencyRow {
    /// Scenario label.
    pub scenario: String,
    /// Cyclic buffer dependency present in the workload's BDG?
    pub cbd: bool,
    /// Did the simulator deadlock?
    pub deadlocked: bool,
}

/// Summarise rows: CBD without deadlock proves insufficiency; deadlock
/// without CBD would falsify necessity (and must never appear).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SufficiencyVerdict {
    /// Scenarios with CBD and deadlock.
    pub cbd_and_deadlock: usize,
    /// Scenarios with CBD but no deadlock (the paper's exhibit).
    pub cbd_no_deadlock: usize,
    /// Scenarios without CBD and without deadlock.
    pub no_cbd_no_deadlock: usize,
    /// Scenarios deadlocked without CBD — must be zero (necessity).
    pub deadlock_without_cbd: usize,
}

impl SufficiencyVerdict {
    /// Tally rows.
    pub fn from_rows(rows: &[SufficiencyRow]) -> Self {
        let mut v = SufficiencyVerdict::default();
        for r in rows {
            match (r.cbd, r.deadlocked) {
                (true, true) => v.cbd_and_deadlock += 1,
                (true, false) => v.cbd_no_deadlock += 1,
                (false, false) => v.no_cbd_no_deadlock += 1,
                (false, true) => v.deadlock_without_cbd += 1,
            }
        }
        v
    }

    /// CBD was demonstrated insufficient (some CBD case did not deadlock).
    pub fn demonstrates_insufficiency(&self) -> bool {
        self.cbd_no_deadlock > 0
    }

    /// Necessity held (no deadlock ever formed without CBD).
    pub fn necessity_held(&self) -> bool {
        self.deadlock_without_cbd == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_net::stats::PauseLog;

    fn key(from: u32, to: u32) -> PauseKey {
        PauseKey {
            from: NodeId(from),
            to: NodeId(to),
            priority: Priority::DEFAULT,
            link: 0,
        }
    }

    fn stats_with(intervals: &[(u32, u32, &[(u64, Option<u64>)])]) -> NetStats {
        let keyed: Vec<_> = (intervals.iter())
            .map(|&(from, to, spans)| (key(from, to), spans))
            .collect();
        stats_on(&keyed)
    }

    fn stats_on(intervals: &[(PauseKey, &[(u64, Option<u64>)])]) -> NetStats {
        let mut stats = NetStats::default();
        for &(key, spans) in intervals {
            let mut log = PauseLog::default();
            for &(start, stop) in spans {
                log.events.record(SimTime::from_us(start));
                log.intervals.open(SimTime::from_us(start));
                if let Some(stop) = stop {
                    log.intervals.close(SimTime::from_us(stop));
                }
            }
            stats.pause.insert(key, log);
        }
        stats
    }

    #[test]
    fn disjoint_pauses_never_overlap() {
        // Fig. 3 shape: only two of four channels pause, alternating.
        let stats = stats_with(&[
            (1, 2, &[(10, Some(20)), (40, Some(50))]),
            (3, 0, &[(25, Some(35)), (60, Some(70))]),
        ]);
        let cycle = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let a = analyze_cycle_overlap(&stats, &cycle, Priority::DEFAULT, SimTime::from_us(100));
        assert_eq!(a.channels_ever_paused, 2);
        assert_eq!(a.max_simultaneous, 1);
        assert!(!a.all_paused_simultaneously());
        assert_eq!(a.all_paused_time, SimDuration::ZERO);
        assert_eq!(a.pause_counts, vec![0, 2, 0, 2]);
    }

    #[test]
    fn full_overlap_detected_with_open_intervals() {
        // Fig. 4 shape: all four paused, last intervals never close.
        let stats = stats_with(&[
            (0, 1, &[(10, None)]),
            (1, 2, &[(12, None)]),
            (2, 3, &[(14, None)]),
            (3, 0, &[(16, None)]),
        ]);
        let cycle = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let a = analyze_cycle_overlap(&stats, &cycle, Priority::DEFAULT, SimTime::from_us(100));
        assert_eq!(a.max_simultaneous, 4);
        assert_eq!(a.first_all_paused, Some(SimTime::from_us(16)));
        assert_eq!(a.all_paused_time, SimDuration::from_us(84));
    }

    #[test]
    fn touching_intervals_do_not_count_as_overlap() {
        let stats = stats_with(&[(0, 1, &[(10, Some(20))]), (1, 0, &[(20, Some(30))])]);
        let cycle = [NodeId(0), NodeId(1)];
        let a = analyze_cycle_overlap(&stats, &cycle, Priority::DEFAULT, SimTime::from_us(50));
        assert_eq!(a.max_simultaneous, 1, "close sorts before open at t=20");
    }

    #[test]
    fn partial_overlap_measures_duration() {
        let stats = stats_with(&[(0, 1, &[(10, Some(40))]), (1, 0, &[(20, Some(30))])]);
        let cycle = [NodeId(0), NodeId(1)];
        let a = analyze_cycle_overlap(&stats, &cycle, Priority::DEFAULT, SimTime::from_us(50));
        assert_eq!(a.max_simultaneous, 2);
        assert_eq!(a.all_paused_time, SimDuration::from_us(10));
        assert_eq!(a.first_all_paused, Some(SimTime::from_us(20)));
    }

    /// Two links joining one pair are two channels: a witness naming
    /// both reads two timelines, never one merged log.
    #[test]
    fn parallel_links_keep_their_own_timelines() {
        let second = |from, to| PauseKey {
            link: 1,
            ..key(from, to)
        };
        // Link 0 of 0→1 pauses early, link 1 late; 1→0 spans both.
        let stats = stats_on(&[
            (key(0, 1), &[(10, Some(20))]),
            (second(0, 1), &[(40, None)]),
            (key(1, 0), &[(5, None)]),
        ]);
        let witness = [second(0, 1), key(1, 0)];
        let a = analyze_channels_overlap(&stats, &witness, SimTime::from_us(100));
        assert_eq!(a.channels, witness);
        assert_eq!(a.pause_counts, vec![1, 1]);
        assert_eq!(a.first_all_paused, Some(SimTime::from_us(40)));
        assert_eq!(a.all_paused_time, SimDuration::from_us(60));
        let first =
            analyze_channels_overlap(&stats, &[key(0, 1), key(1, 0)], SimTime::from_us(100));
        assert_eq!(first.first_all_paused, Some(SimTime::from_us(10)));
        assert_eq!(first.all_paused_time, SimDuration::from_us(10));
    }

    #[test]
    fn blast_radius_counts_and_orders() {
        let stats = stats_with(&[
            (0, 1, &[(10, Some(20))]),
            (1, 2, &[(5, Some(15))]),
            (9, 0, &[(30, None)]), // host 9 -> switch 0
        ]);
        let br = blast_radius(&stats, |n| n.0 < 9);
        assert_eq!(br.channels_paused, 3);
        assert_eq!(br.fabric_channels_paused, 2);
        assert_eq!(br.onset[0].0, key(1, 2), "earliest first");
        assert_eq!(br.onset[0].1, SimTime::from_us(5));
    }

    /// Two links joining one pair, and a second priority on one link,
    /// are channels of their own.
    #[test]
    fn blast_radius_counts_parallel_links_and_priorities_apart() {
        let second = PauseKey {
            link: 1,
            ..key(0, 1)
        };
        let other_class = PauseKey {
            priority: Priority(5),
            ..key(0, 1)
        };
        let stats = stats_on(&[
            (key(0, 1), &[(10, Some(20))]),
            (second, &[(30, None)]),
            (other_class, &[(5, Some(15))]),
            (key(9, 0), &[(40, None)]), // host 9 -> switch 0
        ]);
        let br = blast_radius(&stats, |n| n.0 < 9);
        assert_eq!(br.channels_paused, 4);
        assert_eq!(br.fabric_channels_paused, 3);
        let order: Vec<PauseKey> = br.onset.iter().map(|&(k, _)| k).collect();
        assert_eq!(order, [other_class, key(0, 1), second, key(9, 0)]);
    }

    #[test]
    fn sufficiency_verdict_tallies() {
        let rows = vec![
            SufficiencyRow {
                scenario: "fig3".into(),
                cbd: true,
                deadlocked: false,
            },
            SufficiencyRow {
                scenario: "fig4".into(),
                cbd: true,
                deadlocked: true,
            },
            SufficiencyRow {
                scenario: "line".into(),
                cbd: false,
                deadlocked: false,
            },
        ];
        let v = SufficiencyVerdict::from_rows(&rows);
        assert!(v.demonstrates_insufficiency());
        assert!(v.necessity_held());
        assert_eq!(v.cbd_and_deadlock, 1);
        assert_eq!(v.cbd_no_deadlock, 1);
        assert_eq!(v.no_cbd_no_deadlock, 1);
    }
}

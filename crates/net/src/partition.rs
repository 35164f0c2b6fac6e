//! Partitioned parallel execution: multi-core simulation of one fabric.
//!
//! The serial engine pops one totally ordered `(time, seq)` event stream.
//! This module shards that stream across *partitions* — switch groups
//! computed by [`pfcsim_topo::partition`] — each a fully functional
//! [`NetSim`] that owns its nodes' state and runs an independent event
//! queue. Shards execute concurrently inside conservative *windows*
//! bounded by the minimum propagation delay of any cut link (the
//! *lookahead*): a packet or PFC frame sent across the cut inside a
//! window can only arrive after the window ends, so shards can't miss
//! each other's messages. At every window barrier the driver either
//! extends the window (nothing crossed the cut) or *merges* — folds all
//! shard state back into the driver simulator, assigns final sequence
//! numbers, and delivers cross-partition arrivals — before splitting
//! again.
//!
//! # Determinism
//!
//! Partitioning is a pure execution strategy, like wheel-vs-heap:
//! results are bit-identical at any partition count.
//! The argument has three legs:
//!
//! 1. **Within a shard**, events are popped in `(time, key)` order where
//!    pre-window events keep their serial sequence numbers and events
//!    scheduled *inside* the window get *provisional* keys
//!    (`PROV_BASE + n`, drawn in scheduling order). Since every fresh
//!    serial sequence number exceeds every pre-window one, the shard's
//!    pop order equals the serial pop order restricted to that shard.
//! 2. **At the merge**, each shard's log of (popped parent → scheduled
//!    ops) is replayed in global serial order by an S-way merge: parents
//!    with serial keys compare directly; provisionally-keyed parents
//!    compare by the *rank* their creating op was assigned when it was
//!    emitted — which is exactly the order the serial engine would have
//!    drawn their sequence numbers. Surviving events re-enter the driver
//!    queue in that order under fresh sequence numbers, reproducing the
//!    serial relative order (sequence *values* are observationally
//!    invisible; only relative order matters).
//! 3. **Events the shards can't own** — faults, route updates, sampling,
//!    deadlock/recovery scans — run as *instants*: the driver merges,
//!    then executes them on the fully merged simulator with the plain
//!    serial step loop. An instant sees exactly the state a serial run
//!    would have at that timestamp.
//!
//! Sources of randomness keep their serial draw order: per-flow RNG
//! forks are pre-drawn at the split in global `(time, seq)` order of
//! the pending `FlowStart`s, and the fault stream (PFC-loss coins)
//! lives on the one partition that hosts every armed switch (the
//! partitioner pins them together).
//!
//! # What forces the serial path
//!
//! A handful of features observe cross-shard state mid-window and so
//! disable partitioning (with a one-time warning): ECN marking (and
//! hence DCQCN), telemetry, packet-lifecycle tracing, a Timely flow
//! whose endpoints land in different partitions, a zero-delay cut link,
//! and a partitioner result of one part. `max_events` truncation is
//! quantized to window barriers under partitioning (documented
//! deviation; the budget is a safety valve, not a result).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use pfcsim_simcore::prelude::*;
use pfcsim_simcore::threads;
use pfcsim_topo::partition::{partition_switches, Partition};
use pfcsim_topo::prelude::{FlowId, NodeId, PortNo, Priority, Topology};

use crate::flow::Demand;
use crate::packet::Frame;
use crate::sim::{is_meaningful, Ev, NetSim, SimArenas, StepOutcome};
use crate::stats::NetStats;

/// Provisional-key base: keys at or above this are window-local and
/// resolve to fresh serial sequence numbers at the merge. The serial
/// engine would need to schedule 2^63 events for a real sequence number
/// to collide; the event budget caps runs far below that.
pub(crate) const PROV_BASE: u64 = 1 << 63;

/// A popped parent's identity in the shard log.
#[derive(Debug, Clone, Copy)]
enum PKey {
    /// Pre-window event: its serial sequence number, globally comparable.
    Resolved(u64),
    /// Window-local event: index into this shard's provisional space;
    /// comparable across shards only once its creating op has a rank.
    Prov(u32),
}

/// One popped parent that scheduled at least one op.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    time: SimTime,
    key: PKey,
    /// First op of this parent in [`PMode::ops`]; its ops end where the
    /// next entry's begin.
    ops_start: u32,
}

/// One schedule performed inside a window, in scheduling order.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A local schedule: provisional index it drew.
    Local(u32),
    /// A cross-partition send: index into [`PMode::outbox`].
    Msg(u32),
}

/// A cross-partition arrival, payload already lifted out of the
/// sender's frame slab.
#[derive(Debug, Clone, Copy)]
struct OutMsg {
    at: SimTime,
    node: NodeId,
    port: PortNo,
    frame: Frame,
}

/// Shard-side interception state: installed on a [`NetSim`] acting as a
/// partition shard, consulted by the schedule/pop hooks in `sim.rs`.
pub struct PMode {
    shard: u32,
    part_of: Arc<Vec<u32>>,
    part_of_flow: Arc<Vec<u32>>,
    prov_count: u64,
    parent_time: SimTime,
    parent_key: PKey,
    parent_logged: bool,
    log: Vec<LogEntry>,
    ops: Vec<Op>,
    outbox: Vec<OutMsg>,
    /// Pre-forked per-flow RNGs for pending `FlowStart`s this shard
    /// owns, indexed by dense flow index (see [`NetSim::flow_fork`]).
    pub(crate) prefork: Vec<Option<SimRng>>,
    /// Raw deadlock-tracker calls made this window, replayed onto the
    /// driver's tracker at the merge (per-channel single-writer, and
    /// the epoch is a commutative counter, so cross-shard interleaving
    /// is irrelevant).
    dl_pause: Vec<(NodeId, PortNo, u8, bool)>,
    dl_moved: u64,
}

impl PMode {
    fn new(
        shard: u32,
        part_of: Arc<Vec<u32>>,
        part_of_flow: Arc<Vec<u32>>,
        n_flows: usize,
    ) -> Self {
        PMode {
            shard,
            part_of,
            part_of_flow,
            prov_count: 0,
            parent_time: SimTime::ZERO,
            parent_key: PKey::Resolved(0),
            parent_logged: true,
            log: Vec::new(),
            ops: Vec::new(),
            outbox: Vec::new(),
            prefork: vec![None; n_flows],
            dl_pause: Vec::new(),
            dl_moved: 0,
        }
    }

    /// Lazily record the current parent the first time it schedules.
    #[inline]
    fn ensure_parent_logged(&mut self) {
        if !self.parent_logged {
            self.parent_logged = true;
            self.log.push(LogEntry {
                time: self.parent_time,
                key: self.parent_key,
                ops_start: self.ops.len() as u32,
            });
        }
    }
}

/// Which simulator handles an event.
enum Owner {
    /// A shard: events whose handler touches only that partition's state.
    Part(u32),
    /// The driver, at a merged instant: faults, route updates, sampling,
    /// scans — anything that reads or writes cross-partition state.
    Coordinator,
}

fn owner_of(ev: &Ev, part_of: &[u32], part_of_flow: &[u32], fmap: &[u32]) -> Owner {
    let flow_part = |f: FlowId| {
        let dense = fmap[f.0 as usize] as usize;
        Owner::Part(part_of_flow[dense])
    };
    match *ev {
        Ev::Arrive { node, .. }
        | Ev::TxDone { node, .. }
        | Ev::ShaperRelease { node, .. }
        | Ev::PauseRefresh { node, .. }
        | Ev::PauseExpire { node, .. } => Owner::Part(part_of[node.0 as usize]),
        Ev::HostTxDone { host } | Ev::HostWake { host } => Owner::Part(part_of[host.0 as usize]),
        Ev::FlowTick { flow }
        | Ev::OnOffToggle { flow }
        | Ev::FlowStart { flow }
        | Ev::FlowStop { flow }
        | Ev::Cnp { flow }
        | Ev::RttSample { flow, .. }
        | Ev::DcqcnAlpha { flow }
        | Ev::DcqcnRate { flow } => flow_part(flow),
        Ev::RouteUpdate { .. }
        | Ev::Fault { .. }
        | Ev::SwitchRestore { .. }
        | Ev::Sample
        | Ev::DeadlockScan
        | Ev::RecoveryScan
        | Ev::TelemetrySample => Owner::Coordinator,
    }
}

/// How a `set_partitions` request resolved.
enum Resolution {
    /// A gate fired (or one part): plain serial execution.
    Serial,
    /// Live partitioned runtime.
    Parallel(Box<PartRuntime>),
}

/// Requested partition layout.
enum Layout {
    /// Heuristic split into `n` switch groups.
    Auto(usize),
    /// Explicit, pre-validated per-switch assignment.
    Explicit(Partition),
}

/// Driver-side partitioned-execution control, attached to a [`NetSim`]
/// by [`NetSim::set_partitions`].
pub struct PartControl {
    layout: Layout,
    resolution: Option<Resolution>,
}

/// The live shard runtime (built lazily on the first `drive`).
struct PartRuntime {
    parts: usize,
    part_of: Arc<Vec<u32>>,
    part_of_flow: Arc<Vec<u32>>,
    /// Minimum delay over cut links; `None` when no link crosses the cut
    /// (fully independent shards — windows extend to the cap).
    lookahead: Option<SimDuration>,
    /// The partition holding the fault-randomness stream (every switch
    /// armed with a PFC-loss fault is pinned here).
    fault_part: u32,
    shards: Vec<Option<Box<NetSim>>>,
    /// Extra worker threads granted by the process-wide ledger
    /// ([`pfcsim_simcore::threads`]); 0 ⇒ shards step inline on the
    /// driver thread (identical results, no parallelism).
    extra_threads: usize,
    /// Forwarding tables / link state / armed fault processes changed
    /// since the last split (only instants change them) — reclone into
    /// shards at the next split.
    state_dirty: bool,
    /// Pending pre-forked `FlowStart` RNGs handed to shards at the last
    /// split, in fork order: `(dense flow, shard)`.
    pending_forks: Vec<(u32, u32)>,
}

impl Drop for PartRuntime {
    fn drop(&mut self) {
        threads::release(self.extra_threads);
    }
}

impl NetSim {
    /// Split execution across `parts` partitions (1 disables). Results
    /// are bit-identical at any partition count — partitioning is an
    /// execution strategy, not a model change — so this may be flipped
    /// freely between runs of the same scenario. Takes effect on the
    /// next run/advance call; features that observe cross-partition
    /// state mid-window (ECN, telemetry, tracing, cross-partition
    /// Timely) fall back to serial execution with a one-time warning.
    ///
    /// Defaults to the `PFCSIM_PARTITIONS` environment variable.
    pub fn set_partitions(&mut self, parts: usize) {
        if parts <= 1 {
            self.part = None;
        } else {
            self.part = Some(Box::new(PartControl {
                layout: Layout::Auto(parts),
                resolution: None,
            }));
        }
    }

    /// Like [`NetSim::set_partitions`], but with an explicit per-switch
    /// assignment (`(switch, part)` pairs; hosts follow their first-port
    /// switch) instead of the built-in min-cut-ish heuristic. Errors on
    /// unknown or non-switch nodes, unlisted switches, or empty parts.
    pub fn set_partition_map(&mut self, assignment: &[(NodeId, u32)]) -> Result<(), Error> {
        let p = Partition::explicit(&self.topo, assignment)?;
        if p.parts <= 1 {
            self.part = None;
        } else {
            self.part = Some(Box::new(PartControl {
                layout: Layout::Explicit(p),
                resolution: None,
            }));
        }
        Ok(())
    }

    /// Requested partition count (1 = serial).
    pub fn partitions(&self) -> usize {
        match self.part.as_deref() {
            None => 1,
            Some(ctl) => match &ctl.layout {
                Layout::Auto(n) => *n,
                Layout::Explicit(p) => p.parts as usize,
            },
        }
    }

    /// Read `PFCSIM_PARTITIONS` at construction: `0`/`1` (or unset) is
    /// serial; a garbage value warns once and stays serial, mirroring
    /// the `PFCSIM_THREADS` hardening.
    pub(crate) fn partitions_from_env() -> Option<usize> {
        let v = std::env::var("PFCSIM_PARTITIONS").ok()?;
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 2 => Some(n),
            Ok(_) => None,
            Err(_) => {
                crate::warn::warn_once("env:PFCSIM_PARTITIONS", || {
                    format!(
                        "warning: PFCSIM_PARTITIONS={v:?} is not a non-negative integer; \
                         running serial"
                    )
                });
                None
            }
        }
    }

    /// Top of every run protocol: partitioned execution when enabled
    /// and not gated, the plain serial step loop otherwise.
    pub(crate) fn drive(&mut self, limit: SimTime) -> StepOutcome {
        if self.part.is_none() {
            return self.step_until(limit);
        }
        let mut ctl = self.part.take().expect("checked above");
        if ctl.resolution.is_none() {
            ctl.resolution = Some(self.resolve_partitions(&ctl.layout));
        }
        let out = match ctl.resolution.as_mut().expect("just resolved") {
            Resolution::Serial => self.step_until(limit),
            Resolution::Parallel(rt) => self.prun(rt, limit),
        };
        self.part = Some(ctl);
        out
    }

    /// Evaluate the serial-fallback gates and, if none fire, build the
    /// shard runtime.
    fn resolve_partitions(&mut self, layout: &Layout) -> Resolution {
        let gate = |reason: &str| {
            crate::warn::warn_once(&format!("gate:{reason}"), || {
                format!("warning: partitioned execution disabled ({reason}); running serial")
            });
            Resolution::Serial
        };
        if self.cfg.ecn.is_some() {
            return gate("ECN marking observes queues mid-window");
        }
        if self.telem.is_some() {
            return gate("telemetry is enabled");
        }
        if self.traced.iter().any(|&t| t) {
            return gate("packet-lifecycle tracing is enabled");
        }
        // Switches that draw PFC-loss coins must share one partition so
        // the fault stream is consumed in serial order.
        let mut pins: Vec<NodeId> = self
            .fault_events
            .iter()
            .filter_map(|(_, k)| match k {
                crate::faults::FaultKind::PauseLoss { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        pins.sort_unstable();
        pins.dedup();
        let partition = match layout {
            Layout::Explicit(p) => {
                let parts_of_pins: Vec<u32> =
                    pins.iter().map(|n| p.part_of[n.0 as usize]).collect();
                if parts_of_pins.windows(2).any(|w| w[0] != w[1]) {
                    return gate("explicit assignment splits PFC-loss fault consumers");
                }
                p.clone()
            }
            Layout::Auto(n) => partition_switches(&self.topo, *n, &pins),
        };
        if partition.parts <= 1 {
            return gate("partitioner produced a single part");
        }
        let fault_part = pins
            .first()
            .map(|n| partition.part_of[n.0 as usize])
            .unwrap_or(0);
        let lookahead = cut_lookahead(&self.topo, &partition.part_of);
        if lookahead == Some(SimDuration::ZERO) {
            return gate("a zero-delay link crosses the partition cut");
        }
        let part_of_flow: Vec<u32> = self
            .flows
            .iter()
            .map(|s| partition.part_of[s.src.0 as usize])
            .collect();
        for s in &self.flows {
            let cross = partition.part_of[s.src.0 as usize] != partition.part_of[s.dst.0 as usize];
            if cross && matches!(s.demand, Demand::Dcqcn | Demand::Timely) {
                return gate("a congestion-controlled flow spans partitions");
            }
        }
        let parts = partition.parts as usize;
        let part_of = Arc::new(partition.part_of);
        let part_of_flow = Arc::new(part_of_flow);
        let shards = (0..parts)
            .map(|s| {
                Some(Box::new(self.build_shard(
                    s as u32,
                    parts,
                    &part_of,
                    &part_of_flow,
                )))
            })
            .collect();
        let extra_threads = threads::try_acquire(parts - 1);
        if extra_threads < parts - 1 {
            crate::warn::warn_once("threads:partition-budget", || {
                format!(
                    "warning: thread budget grants {extra_threads} extra worker(s) for \
                     {parts} partitions; remaining shards step inline (results identical)"
                )
            });
        }
        Resolution::Parallel(Box::new(PartRuntime {
            parts,
            part_of,
            part_of_flow,
            lookahead,
            fault_part,
            shards,
            extra_threads,
            state_dirty: true,
            pending_forks: Vec::new(),
        }))
    }

    /// Construct one shard: same topology, tables and flow book as the
    /// driver, with every periodic/coordinator feature disabled and the
    /// scheduler backend pinned to the driver's. Node state arrives at
    /// each split, so all per-node slots start empty.
    fn build_shard(
        &self,
        shard: u32,
        parts: usize,
        part_of: &Arc<Vec<u32>>,
        part_of_flow: &Arc<Vec<u32>>,
    ) -> NetSim {
        let mut cfg = self.cfg.clone();
        cfg.sample_interval = None;
        cfg.deadlock_scan_interval = None;
        cfg.max_events = 0;
        cfg.stop_on_deadlock = false;
        cfg.recovery = None;
        cfg.telemetry.enabled = false;
        cfg.scheduler = Some(self.queue.backend());
        let mut sh = NetSim::construct(
            &self.topo,
            cfg,
            Some(self.tables.clone()),
            &mut SimArenas::default(),
            None,
        )
        .expect("shard config derives from a validated driver config");
        let n = self.flows.len();
        sh.flows = self.flows.clone();
        sh.fmap = self.fmap.clone();
        sh.pinned = self.pinned.clone();
        sh.traced = self.traced.clone();
        sh.rt = vec![Default::default(); n];
        sh.fstats = vec![Default::default(); n];
        sh.fstats_touched = vec![false; n];
        sh.switch_pfc = self.switch_pfc.clone();
        sh.pause_headroom = self.pause_headroom;
        sh.dcqcn_cfg = self.dcqcn_cfg;
        sh.timely_cfg = self.timely_cfg;
        sh.started = true;
        sh.pkt_id_step = parts as u64;
        // Per-node state is moved in at each split; empty slots turn an
        // ownership bug into a loud panic instead of silent divergence.
        sh.switches.iter_mut().for_each(|s| *s = None);
        sh.hosts.iter_mut().for_each(|h| *h = None);
        sh.pmode = Some(Box::new(PMode::new(
            shard,
            Arc::clone(part_of),
            Arc::clone(part_of_flow),
            n,
        )));
        // Shards are driven directly through `step_until`; a
        // `PFCSIM_PARTITIONS` default picked up by `construct` must not
        // nest. Likewise the hybrid backend runs in the driver only
        // (partitioned runs gate it anyway): shards stay full-packet.
        sh.part = None;
        sh.hybrid = None;
        sh.drain_stop = None;
        sh
    }

    /// The partitioned run loop: split → windows → merge → instant,
    /// repeated until a terminal outcome. On every return the driver
    /// simulator is fully merged — checkpointing, `finalize`, and the
    /// telemetry/stats surfaces see exactly the serial state.
    fn prun(&mut self, rt: &mut PartRuntime, limit: SimTime) -> StepOutcome {
        loop {
            if self.cfg.max_events > 0 && self.events >= self.cfg.max_events {
                // Window barriers quantize the budget: delegate to the
                // serial loop, which truncates and reports immediately.
                return self.step_until(limit);
            }
            if self.meaningful == 0 {
                return StepOutcome::Quiesced;
            }
            let Some(t_front) = self.queue.peek_time() else {
                return StepOutcome::Quiesced;
            };
            if t_front > limit {
                return StepOutcome::LimitReached;
            }
            let t_coord = self.psplit(rt);
            // Windows may run only strictly below the next coordinator
            // event (its instant needs full state) and never past the
            // step limit.
            let cap = match t_coord {
                Some(tc) if tc <= limit => {
                    if tc == SimTime::ZERO {
                        None
                    } else {
                        Some(SimTime::from_ps(tc.as_ps() - 1))
                    }
                }
                _ => Some(limit),
            };
            if let Some(cap) = cap {
                run_windows(rt, cap);
            }
            self.pmerge(rt);
            if let Some(tc) = t_coord {
                if tc <= limit && self.queue.peek_time().is_some_and(|p| p >= tc) {
                    // All shard work below the instant is done: execute
                    // every event at `tc` — coordinator and shard-owned
                    // alike — in serial order on the merged simulator.
                    rt.state_dirty = true;
                    match self.step_until(tc) {
                        StepOutcome::LimitReached => continue,
                        terminal => return terminal,
                    }
                }
            }
            // Cross-partition traffic interrupted the window (or the
            // cap was hit): loop re-splits with the merged queue.
        }
    }

    /// Distribute driver state and queued events to the shards. Returns
    /// the time of the earliest coordinator event, which bounds the
    /// window phase.
    fn psplit(&mut self, rt: &mut PartRuntime) -> Option<SimTime> {
        let parts = rt.parts;
        let part_of = Arc::clone(&rt.part_of);
        let n_nodes = self.topo.node_count();
        let n_flows = self.flows.len();
        for s in 0..parts {
            let sh = rt.shards[s].as_mut().expect("shard present");
            if rt.state_dirty {
                sh.tables.clone_from(&self.tables);
                sh.link_up.clone_from(&self.link_up);
                sh.pfc_loss.clone_from(&self.pfc_loss);
                sh.pfc_delay.clone_from(&self.pfc_delay);
            }
            sh.tx_pause.clone_from(&self.tx_pause);
            sh.pause_timer.iter_mut().for_each(|t| *t = None);
            sh.next_pkt_id = self.next_pkt_id + s as u64;
            for n in 0..n_nodes {
                if part_of[n] as usize != s {
                    continue;
                }
                if self.switches[n].is_some() {
                    sh.switches[n] = self.switches[n].take();
                }
                if self.hosts[n].is_some() {
                    sh.hosts[n] = self.hosts[n].take();
                }
                sh.host_in_flight[n] = self.host_in_flight[n].take();
            }
            for i in 0..n_flows {
                if rt.part_of_flow[i] as usize == s {
                    std::mem::swap(&mut self.rt[i], &mut sh.rt[i]);
                }
                if part_of[self.flows[i].dst.0 as usize] as usize == s {
                    std::mem::swap(&mut self.fstats[i].meter, &mut sh.fstats[i].meter);
                }
            }
        }
        rt.state_dirty = false;
        // Pause-history logs move to the receiver's shard (the only
        // writer of a `PauseKey` is its `to` node's handler).
        let pause = std::mem::take(&mut self.stats.pause);
        for (key, log) in pause {
            let s = part_of[key.to.0 as usize] as usize;
            rt.shards[s]
                .as_mut()
                .expect("shard present")
                .stats
                .pause
                .insert(key, log);
        }
        // The fault stream is consumed only by its pinned partition.
        let frng = std::mem::replace(&mut self.fault_rng, SimRng::new(0));
        rt.shards[rt.fault_part as usize]
            .as_mut()
            .expect("shard present")
            .fault_rng = frng;
        // Distribute the event queue; coordinator events stay, keeping
        // their serial keys either way.
        let entries = self.queue.live_entries();
        self.queue.clear();
        let mut t_coord: Option<SimTime> = None;
        let mut forks: Vec<(u32, u32, u64)> = Vec::new();
        for (t, seq, mut ev) in entries {
            match owner_of(&ev, &part_of, &rt.part_of_flow, &self.fmap) {
                Owner::Coordinator => {
                    t_coord = Some(t_coord.map_or(t, |c: SimTime| c.min(t)));
                    self.queue.schedule_at_seq(t, seq, ev);
                }
                Owner::Part(s) => {
                    debug_assert!(is_meaningful(&ev));
                    if let Ev::FlowStart { flow } = ev {
                        let i = self.fidx(flow);
                        match self.flows[i].demand {
                            Demand::Poisson(_) => {
                                forks.push((i as u32, s, 0x50_1550 ^ flow.0 as u64));
                            }
                            Demand::OnOff { .. } => {
                                forks.push((i as u32, s, 0x0F0F ^ flow.0 as u64));
                            }
                            _ => {}
                        }
                    }
                    if let Ev::Arrive { frame, .. } = &mut ev {
                        let payload = self.frame_take(*frame);
                        *frame = rt.shards[s as usize]
                            .as_mut()
                            .expect("shard present")
                            .frame_alloc(payload);
                    }
                    let pt = pause_expire_of(&ev);
                    let sh = rt.shards[s as usize].as_mut().expect("shard present");
                    let id = sh.queue.schedule_at_seq(t, seq, ev);
                    if let Some((node, port, prio)) = pt {
                        let c = sh.chan(node, port, prio as usize);
                        sh.pause_timer[c] = Some(id);
                    }
                    sh.meaningful += 1;
                    self.meaningful -= 1;
                }
            }
        }
        // Pre-fork flow RNGs in global (time, seq) order of the pending
        // `FlowStart`s — the order the serial engine would fork in. The
        // driver's stream is advanced at the merge by however many forks
        // the windows consumed; the rest are recomputed next split.
        let mut parent = self.rng.clone();
        for &(i, s, salt) in &forks {
            let child = parent.fork(salt);
            let sh = rt.shards[s as usize].as_mut().expect("shard present");
            sh.pmode.as_deref_mut().expect("shard pmode").prefork[i as usize] = Some(child);
            rt.pending_forks.push((i, s));
        }
        t_coord
    }

    /// Fold all shard state back into the driver and resolve every
    /// provisional key to a fresh serial sequence number, in exactly the
    /// order the serial engine would have drawn them.
    fn pmerge(&mut self, rt: &mut PartRuntime) {
        struct MSh {
            surv: Vec<Option<(SimTime, Ev)>>,
            resolved: Vec<(SimTime, u64, Ev)>,
            log: Vec<LogEntry>,
            ops: Vec<Op>,
            outbox: Vec<OutMsg>,
            rank: Vec<u64>,
            cur: usize,
        }
        let parts = rt.parts;
        let part_of = Arc::clone(&rt.part_of);
        let mut new_now = self.queue.now();
        let mut mshs: Vec<MSh> = Vec::with_capacity(parts);
        for s in 0..parts {
            let sh = rt.shards[s].as_mut().expect("shard present");
            new_now = new_now.max(sh.queue.now());
            let pm = sh.pmode.as_deref_mut().expect("shard pmode");
            let log = std::mem::take(&mut pm.log);
            let ops = std::mem::take(&mut pm.ops);
            let outbox = std::mem::take(&mut pm.outbox);
            let prov_count = pm.prov_count as usize;
            pm.prov_count = 0;
            let entries = sh.queue.live_entries();
            sh.queue.clear();
            let mut surv: Vec<Option<(SimTime, Ev)>> = vec![None; prov_count];
            let mut resolved = Vec::new();
            for (t, seq, ev) in entries {
                if seq >= PROV_BASE {
                    surv[(seq - PROV_BASE) as usize] = Some((t, ev));
                } else {
                    resolved.push((t, seq, ev));
                }
            }
            mshs.push(MSh {
                surv,
                resolved,
                log,
                ops,
                outbox,
                rank: vec![0; prov_count],
                cur: 0,
            });
        }
        // The merged clock is the global last-pop time — exactly where
        // the serial clock would stand.
        self.queue.advance_now(new_now);
        self.pause_timer.iter_mut().for_each(|t| *t = None);
        // Pre-window survivors re-enter under their original serial keys.
        for (s, m) in mshs.iter_mut().enumerate() {
            for (t, seq, mut ev) in m.resolved.drain(..) {
                if let Ev::Arrive { frame, .. } = &mut ev {
                    let sh = rt.shards[s].as_mut().expect("shard present");
                    let payload = sh.frame_take(*frame);
                    *frame = self.frame_alloc(payload);
                }
                let pt = pause_expire_of(&ev);
                let id = self.queue.schedule_at_seq(t, seq, ev);
                if let Some((node, port, prio)) = pt {
                    let c = self.chan(node, port, prio as usize);
                    self.pause_timer[c] = Some(id);
                }
            }
        }
        // Rank-merge replay: emit every window-local schedule in global
        // serial order. A provisional parent's rank is assigned when its
        // creating op is emitted, which is always before the parent's
        // own log entry reaches the head of its shard's log.
        let mut next_rank: u64 = 0;
        loop {
            let mut best: Option<(SimTime, u8, u64, usize)> = None;
            for (s, m) in mshs.iter().enumerate() {
                let Some(e) = m.log.get(m.cur) else { continue };
                let (cls, val) = match e.key {
                    PKey::Resolved(q) => (0u8, q),
                    PKey::Prov(k) => (1u8, m.rank[k as usize]),
                };
                let cand = (e.time, cls, val, s);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, _, _, s)) = best else { break };
            let m = &mut mshs[s];
            let e = m.log[m.cur];
            let ops_end = m
                .log
                .get(m.cur + 1)
                .map_or(m.ops.len() as u32, |n| n.ops_start);
            for oi in e.ops_start..ops_end {
                match m.ops[oi as usize] {
                    Op::Local(k) => {
                        m.rank[k as usize] = next_rank;
                        next_rank += 1;
                        // Already popped or cancelled entries draw no
                        // sequence number: values are invisible, only
                        // the relative order of survivors matters.
                        if let Some((t, mut ev)) = m.surv[k as usize].take() {
                            if let Ev::Arrive { frame, .. } = &mut ev {
                                let sh = rt.shards[s].as_mut().expect("shard present");
                                let payload = sh.frame_take(*frame);
                                *frame = self.frame_alloc(payload);
                            }
                            let pt = pause_expire_of(&ev);
                            let id = self.queue.schedule(t, ev);
                            if let Some((node, port, prio)) = pt {
                                let c = self.chan(node, port, prio as usize);
                                self.pause_timer[c] = Some(id);
                            }
                        }
                    }
                    Op::Msg(x) => {
                        let msg = m.outbox[x as usize];
                        let ix = self.frame_alloc(msg.frame);
                        self.queue.schedule(
                            msg.at,
                            Ev::Arrive {
                                node: msg.node,
                                port: msg.port,
                                frame: ix,
                            },
                        );
                        self.meaningful += 1;
                    }
                }
            }
            m.cur += 1;
        }
        // Fold per-shard state back.
        let n_nodes = self.topo.node_count();
        let n_flows = self.flows.len();
        for s in 0..parts {
            let sh = rt.shards[s].as_mut().expect("shard present");
            self.meaningful += sh.meaningful;
            sh.meaningful = 0;
            self.events += sh.events;
            sh.events = 0;
            self.next_pkt_id = self.next_pkt_id.max(sh.next_pkt_id);
            for n in 0..n_nodes {
                if part_of[n] as usize != s {
                    continue;
                }
                if sh.switches[n].is_some() {
                    self.switches[n] = sh.switches[n].take();
                }
                if sh.hosts[n].is_some() {
                    self.hosts[n] = sh.hosts[n].take();
                }
                self.host_in_flight[n] = sh.host_in_flight[n].take();
                let pc = Priority::COUNT;
                let lo = self.port_base[n] as usize * pc;
                let hi = self.port_base[n + 1] as usize * pc;
                self.tx_pause[lo..hi].copy_from_slice(&sh.tx_pause[lo..hi]);
            }
            for i in 0..n_flows {
                if rt.part_of_flow[i] as usize == s {
                    std::mem::swap(&mut self.rt[i], &mut sh.rt[i]);
                }
                if part_of[self.flows[i].dst.0 as usize] as usize == s {
                    std::mem::swap(&mut self.fstats[i].meter, &mut sh.fstats[i].meter);
                }
                if sh.fstats_touched[i] {
                    sh.fstats_touched[i] = false;
                    self.fstats_touched[i] = true;
                    fold_flow_stats(&mut self.fstats[i], &mut sh.fstats[i]);
                }
            }
            fold_net_stats(&mut self.stats, &mut sh.stats);
            let pm = sh.pmode.as_deref_mut().expect("shard pmode");
            for &(node, port, prio, on) in &pm.dl_pause {
                self.dl.note_pause(node, port, prio as usize, on);
            }
            pm.dl_pause.clear();
            for _ in 0..pm.dl_moved {
                self.dl.note_bytes_moved();
            }
            pm.dl_moved = 0;
        }
        // Fault stream home.
        let fault_sh = rt.shards[rt.fault_part as usize]
            .as_mut()
            .expect("shard present");
        self.fault_rng = std::mem::replace(&mut fault_sh.fault_rng, SimRng::new(0));
        // Advance the traffic RNG past the forks the windows consumed —
        // a fork costs the parent exactly one draw, salt-independent,
        // and consumption is always a (time-ordered) prefix.
        let mut consumed = 0usize;
        for &(i, s) in &rt.pending_forks {
            let sh = rt.shards[s as usize].as_mut().expect("shard present");
            let pm = sh.pmode.as_deref_mut().expect("shard pmode");
            if pm.prefork[i as usize].take().is_none() {
                consumed += 1;
            }
        }
        rt.pending_forks.clear();
        for _ in 0..consumed {
            self.rng.next_u64();
        }
    }

    /// Schedule hook while in shard mode: local events draw provisional
    /// keys in scheduling order; boundary `Arrive`s leave through the
    /// outbox. Both are logged against the popped parent so the merge
    /// can replay the serial scheduling order.
    pub(crate) fn pmode_sched(&mut self, at: SimTime, ev: Ev) {
        let pm = self
            .pmode
            .as_deref_mut()
            .expect("pmode_sched outside shard mode");
        debug_assert!(
            is_meaningful(&ev),
            "shards never schedule coordinator/bookkeeping events"
        );
        let dest = match ev {
            Ev::Arrive { node, .. } => pm.part_of[node.0 as usize],
            _ => {
                debug_assert!(matches!(
                    owner_of(&ev, &pm.part_of, &pm.part_of_flow, &self.fmap),
                    Owner::Part(p) if p == pm.shard
                ));
                pm.shard
            }
        };
        if dest != pm.shard {
            let Ev::Arrive { node, port, frame } = ev else {
                unreachable!("only arrivals cross the cut");
            };
            // `sched` counted it; the event now belongs to the merge.
            self.meaningful -= 1;
            self.frame_free.push(frame);
            let payload = self.frames[frame as usize];
            pm.ensure_parent_logged();
            pm.ops.push(Op::Msg(pm.outbox.len() as u32));
            pm.outbox.push(OutMsg {
                at,
                node,
                port,
                frame: payload,
            });
            return;
        }
        let k = pm.prov_count;
        pm.prov_count += 1;
        pm.ensure_parent_logged();
        pm.ops.push(Op::Local(k as u32));
        self.queue.schedule_at_seq(at, PROV_BASE | k, ev);
    }

    /// Pause-timer hook while in shard mode. The serial engine draws one
    /// fresh sequence number here whether it reschedules a live timer
    /// (`meaningful` unchanged) or schedules anew (`+1`); cancel +
    /// provisional insert reproduces both the key order and the
    /// bookkeeping.
    pub(crate) fn pmode_arm_pause_timer(
        &mut self,
        c: usize,
        node: NodeId,
        port: PortNo,
        prio: u8,
        until: SimTime,
    ) {
        let was_live = match self.pause_timer[c].take() {
            Some(id) => self.queue.cancel(id),
            None => false,
        };
        if !was_live {
            self.meaningful += 1;
        }
        let pm = self.pmode.as_deref_mut().expect("pmode");
        let k = pm.prov_count;
        pm.prov_count += 1;
        pm.ensure_parent_logged();
        pm.ops.push(Op::Local(k as u32));
        let id =
            self.queue
                .schedule_at_seq(until, PROV_BASE | k, Ev::PauseExpire { node, port, prio });
        self.pause_timer[c] = Some(id);
    }

    /// Pop hook: remember which event is executing so its schedules can
    /// be logged against it. No-op on a serial simulator.
    #[inline]
    pub(crate) fn pmode_begin(&mut self, key: (SimTime, u64)) {
        if let Some(pm) = self.pmode.as_deref_mut() {
            pm.parent_time = key.0;
            pm.parent_key = if key.1 >= PROV_BASE {
                PKey::Prov((key.1 - PROV_BASE) as u32)
            } else {
                PKey::Resolved(key.1)
            };
            pm.parent_logged = false;
        }
    }

    /// Deadlock-tracker wrapper: on a shard, log the raw call for merge
    /// replay onto the driver's tracker (the shard's own tracker state
    /// is scratch).
    #[inline]
    pub(crate) fn dl_note_pause(&mut self, node: NodeId, port: PortNo, prio: usize, on: bool) {
        if let Some(pm) = self.pmode.as_deref_mut() {
            pm.dl_pause.push((node, port, prio as u8, on));
        }
        self.dl.note_pause(node, port, prio, on);
    }

    /// See [`NetSim::dl_note_pause`].
    #[inline]
    pub(crate) fn dl_note_moved(&mut self) {
        if let Some(pm) = self.pmode.as_deref_mut() {
            pm.dl_moved += 1;
        }
        self.dl.note_bytes_moved();
    }
}

/// If the event is a `PauseExpire`, its channel coordinates (for the
/// pause-timer side table rebuilt around queue transfers).
fn pause_expire_of(ev: &Ev) -> Option<(NodeId, PortNo, u8)> {
    match *ev {
        Ev::PauseExpire { node, port, prio } => Some((node, port, prio)),
        _ => None,
    }
}

/// Earliest pending event across all shards.
fn shard_min_peek(rt: &PartRuntime) -> Option<SimTime> {
    rt.shards
        .iter()
        .filter_map(|s| s.as_ref().expect("shard present").queue.peek_time())
        .min()
}

/// Minimum propagation delay over links crossing the cut (`None` = no
/// cut links, i.e. fully independent shards).
fn cut_lookahead(topo: &Topology, part_of: &[u32]) -> Option<SimDuration> {
    topo.links()
        .iter()
        .filter(|l| part_of[l.a.0 as usize] != part_of[l.b.0 as usize])
        .map(|l| l.delay)
        .min()
}

/// Add-and-zero every counter of `src` into `dst`. The throughput meter
/// is excluded: it is *moved* (swapped) to the destination shard, not
/// delta-folded.
fn fold_flow_stats(dst: &mut crate::stats::FlowStats, src: &mut crate::stats::FlowStats) {
    macro_rules! fold {
        ($($f:ident),* $(,)?) => {
            $(
                dst.$f += std::mem::take(&mut src.$f);
            )*
        };
    }
    fold!(
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
        ecn_marked,
    );
}

/// Fold a shard's window-scoped network counters back into the driver:
/// scalars are deltas (the shard starts each split at zero), the pause
/// map moves whole entries (disjoint keys — one writer per `to` node),
/// and fault records append in chronological order (only the
/// fault-stream shard produces them).
fn fold_net_stats(dst: &mut NetStats, src: &mut NetStats) {
    macro_rules! fold {
        ($($f:ident),* $(,)?) => {
            $(
                dst.$f += std::mem::take(&mut src.$f);
            )*
        };
    }
    fold!(
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
    );
    dst.pause.append(&mut src.pause);
    dst.faults.append(&mut src.faults);
    debug_assert!(src.occupancy.is_empty() && src.flows.is_empty() && src.trace.is_empty());
}

/// Run the conservative-window phase: step every shard to a shared
/// bound, extend while nothing crosses the cut, stop at the cap or when
/// the shards drain. Workers come from the thread ledger; a grant of
/// zero steps every shard inline on the calling thread with identical
/// results.
fn run_windows(rt: &mut PartRuntime, cap: SimTime) {
    // First bound computed from direct inspection; later bounds from
    // the per-window aggregates the lanes report.
    let Some(w0) = next_window(shard_min_peek(rt), rt.lookahead, cap) else {
        return;
    };
    let lanes = 1 + rt.extra_threads.min(rt.parts.saturating_sub(1));
    if lanes == 1 {
        let mut w = w0;
        loop {
            let mut agg = WindowAgg::new();
            for sh in rt.shards.iter_mut() {
                let sh = sh.as_mut().expect("shard present");
                sh.step_until(w);
                agg.absorb(sh);
            }
            match agg.next(rt.lookahead, cap, w) {
                Some(next) => w = next,
                None => return,
            }
        }
    } else {
        run_windows_threaded(rt, cap, w0, lanes);
    }
}

/// Per-window aggregate the driver needs to pick the next bound:
/// earliest pending event, whether anything crossed the cut, and
/// whether any work remains.
struct WindowAgg {
    min_peek: u64,
    meaningful: u64,
    outbox: bool,
}

impl WindowAgg {
    fn new() -> Self {
        WindowAgg {
            min_peek: u64::MAX,
            meaningful: 0,
            outbox: false,
        }
    }

    fn absorb(&mut self, sh: &NetSim) {
        if let Some(t) = sh.queue.peek_time() {
            self.min_peek = self.min_peek.min(t.as_ps());
        }
        self.meaningful += sh.meaningful;
        self.outbox |= !sh.pmode.as_deref().expect("shard pmode").outbox.is_empty();
    }

    /// Decide whether the window chain continues, and to what bound.
    fn next(&self, lookahead: Option<SimDuration>, cap: SimTime, prev: SimTime) -> Option<SimTime> {
        if self.outbox || self.meaningful == 0 || prev >= cap {
            return None;
        }
        let peek = (self.min_peek != u64::MAX).then(|| SimTime::from_ps(self.min_peek));
        next_window(peek, lookahead, cap)
    }
}

/// The conservative bound: every shard may safely run through
/// `min_pending + lookahead - 1ps` — a message sent at or after the
/// earliest possible next event arrives after that. `None` when there
/// is nothing to run.
fn next_window(
    min_peek: Option<SimTime>,
    lookahead: Option<SimDuration>,
    cap: SimTime,
) -> Option<SimTime> {
    let t = min_peek?;
    if t > cap {
        return None;
    }
    Some(match lookahead {
        Some(l) => cap.min(SimTime::from_ps(t.as_ps().saturating_add(l.as_ps()) - 1)),
        None => cap,
    })
}

/// Threaded window loop: shards are dealt round-robin onto `lanes - 1`
/// worker threads plus the calling thread, which doubles as lane 0 and
/// the window-bound decider. Lanes synchronize on a barrier per window
/// and report their aggregates through atomics (all commutative, so the
/// decision sequence is identical to the inline path's).
fn run_windows_threaded(rt: &mut PartRuntime, cap: SimTime, w0: SimTime, lanes: usize) {
    let barrier = Barrier::new(lanes);
    let w_ps = AtomicU64::new(w0.as_ps());
    let stop = AtomicBool::new(false);
    let min_peek = AtomicU64::new(u64::MAX);
    let meaningful = AtomicU64::new(0);
    let outbox = AtomicBool::new(false);
    let lookahead = rt.lookahead;
    // Deal the boxes out by index; lane 0 (the caller) gets `idx % lanes
    // == 0`.
    let mut lane_shards: Vec<Vec<(usize, Box<NetSim>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (idx, slot) in rt.shards.iter_mut().enumerate() {
        lane_shards[idx % lanes].push((idx, slot.take().expect("shard present")));
    }
    let mut lane0 = lane_shards.remove(0);
    let run_lane = |mine: &mut Vec<(usize, Box<NetSim>)>| {
        // One round: wait for the bound, step, report.
        loop {
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let w = SimTime::from_ps(w_ps.load(Ordering::SeqCst));
            let mut agg = WindowAgg::new();
            for (_, sh) in mine.iter_mut() {
                sh.step_until(w);
                agg.absorb(sh);
            }
            min_peek.fetch_min(agg.min_peek, Ordering::SeqCst);
            meaningful.fetch_add(agg.meaningful, Ordering::SeqCst);
            outbox.fetch_or(agg.outbox, Ordering::SeqCst);
            barrier.wait();
        }
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lanes - 1);
        for mut mine in lane_shards {
            let run_lane = &run_lane;
            handles.push(scope.spawn(move || {
                run_lane(&mut mine);
                mine
            }));
        }
        let mut w = w0;
        loop {
            min_peek.store(u64::MAX, Ordering::SeqCst);
            meaningful.store(0, Ordering::SeqCst);
            outbox.store(false, Ordering::SeqCst);
            w_ps.store(w.as_ps(), Ordering::SeqCst);
            barrier.wait(); // go
            let mut agg = WindowAgg::new();
            for (_, sh) in lane0.iter_mut() {
                sh.step_until(w);
                agg.absorb(sh);
            }
            min_peek.fetch_min(agg.min_peek, Ordering::SeqCst);
            meaningful.fetch_add(agg.meaningful, Ordering::SeqCst);
            outbox.fetch_or(agg.outbox, Ordering::SeqCst);
            barrier.wait(); // done — all lanes reported
            let total = WindowAgg {
                min_peek: min_peek.load(Ordering::SeqCst),
                meaningful: meaningful.load(Ordering::SeqCst),
                outbox: outbox.load(Ordering::SeqCst),
            };
            match total.next(lookahead, cap, w) {
                Some(next) => w = next,
                None => {
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait(); // release workers into their exit check
                    break;
                }
            }
        }
        for h in handles {
            for (idx, sh) in h.join().expect("window worker panicked") {
                rt.shards[idx] = Some(sh);
            }
        }
    });
    for (idx, sh) in lane0 {
        rt.shards[idx] = Some(sh);
    }
}

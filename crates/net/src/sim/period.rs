//! Fast-forward of periodic steady states.
//!
//! A run is deterministic, so one that comes back to a state it has been
//! in has already seen its whole future: it repeats the span between the
//! two visits for ever. [`NetSim::run`] and [`NetSim::run_to_verdict`]
//! step at the deadlock detector's cadence and, at each step, compare
//! the run's *behavioural* state with the ones it has seen. On a
//! recurrence they skip the whole periods that still fit before the
//! horizon and simulate only the rest (see `NetSim::fast_forward`).
//!
//! ## The behavioural state
//!
//! Every field of the simulator is in exactly one class, and
//! [`encode`] destructures each part without `..`, so a new field does
//! not compile until it is classified:
//!
//! * **behavioural** — read by some handler that can still fire: queues,
//!   PFC state, flow sources, RNG streams, pending events. Encoded.
//! * **relative time** — an instant a handler compares with the clock.
//!   Encoded as the instant minus now; a deadline that has passed reads
//!   as zero when every passed deadline behaves alike.
//! * **write-only** — counters, ids, logs and series the handlers only
//!   append to or add to. Not encoded; a jump extends each by whole
//!   periods (`Checkpoint::skip_periods`). A monotone counter that is
//!   read only against another (the detector's epoch against the one of
//!   its last clean scan, a telemetry tracker against the value it
//!   tracks) is encoded as that comparison.
//!
//! Fields fixed once the run has started (topology, configuration, flow
//! specs, thresholds) are behavioural but equal at every instant of a
//! run, so they are not encoded. The forwarding tables, the route-update
//! and fault timelines and the reboot records change only when a pending
//! route update, fault or switch restore fires; those are one-shot
//! events, encoded with their payload, and a finite set of one-shot
//! events cannot be pending at the same offsets twice, so two equal
//! encodings have the same tables too.
//!
//! Pending events are encoded in pop order with their time relative to
//! now and the rank of their sequence number among the pending ones (a
//! rescheduled pause timer keeps its number, so the rank decides ties it
//! meets later). Packets are encoded by content, not by frame slot.
//!
//! ## Cost
//!
//! Each step first takes a [`fingerprint`] — ingress bytes, pause bits,
//! egress queue lengths and event counts, O(ports) — and encodes the
//! full state only when the fingerprint has been seen before, so a run
//! that never settles pays the fingerprint alone.

use std::collections::HashSet;

use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;

use super::{ControlPlane, Datapath, Ev, FlowArena, NetSim};
use crate::dcqcn::DcqcnState;
use crate::deadlock::DeadlockTracker;
use crate::flow::Demand;
use crate::host::{FlowRt, Host};
use crate::packet::{Frame, Packet, PfcFrame, PfcOp};
use crate::stats::{FlowStats, StatsMark};
use crate::switch::{Egress, EgressQueue, FlowLedger, InFlight, Ingress, QPkt, Switch, TxPause};
use crate::telemetry::{TelemetryMark, TelemetryRecord, TelemetryState};
use crate::timely::TimelyState;

/// Encoded states one run keeps, at most. A state is encoded and kept
/// the second time its fingerprint is seen, so a run whose period spans
/// `p` detector steps needs `p` of them; the longest period measured
/// over `repro all` spans 62 steps (3 100 µs at the 50 µs cadence).
pub(crate) const MAX_STATES: usize = 64;

/// Bytes of encoded state one run keeps, at most: twice what the 62
/// states of that longest period take (a fabric's states are far
/// larger, and a store that never matches is pure memory).
pub(crate) const MAX_STATE_BYTES: usize = 2 << 20;

/// What a run records about its fast-forward (see
/// [`RunReport::fast_forward`](super::RunReport::fast_forward)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForward {
    /// When the run first came back to a state it had been in.
    pub recurred_at: SimTime,
    /// Time between the two visits.
    pub period: SimDuration,
    /// Whole periods skipped instead of simulated.
    pub periods_skipped: u64,
}

/// Every write-only quantity at one detector step: what a jump extends
/// from. Taken with each kept encoding.
pub(crate) struct Mark {
    pub(crate) at: SimTime,
    pub(crate) events: u64,
    pub(crate) next_pkt_id: u64,
    /// Per flow row: next packet sequence number and bytes generated.
    pub(crate) flow_rt: Vec<(u64, Bytes)>,
    pub(crate) flow_stats: Vec<FlowStats>,
    /// Per node (zero for switches): bytes the host received.
    pub(crate) received: Vec<Bytes>,
    pub(crate) dl_epoch: u64,
    pub(crate) last_clean_scan: Option<u64>,
    pub(crate) scans_run: u64,
    pub(crate) scans_skipped: u64,
    pub(crate) stats: StatsMark,
    pub(crate) telemetry: Option<TelemetryMark>,
}

impl Mark {
    fn take(sim: &NetSim, at: SimTime) -> Mark {
        Mark {
            at,
            events: sim.events,
            next_pkt_id: sim.dp.next_pkt_id,
            flow_rt: (sim.dp.flows.rt.iter())
                .map(|rt| (rt.next_seq, rt.injected))
                .collect(),
            flow_stats: sim.dp.flows.stats.clone(),
            received: (sim.dp.hosts.iter())
                .map(|h| h.as_ref().map_or(Bytes::ZERO, |h| h.received))
                .collect(),
            dl_epoch: sim.cp.dl.epoch,
            last_clean_scan: sim.cp.last_clean_scan,
            scans_run: sim.cp.scans_run,
            scans_skipped: sim.cp.scans_skipped,
            stats: sim.stats.mark(),
            telemetry: (sim.telem.as_deref()).map(|t| t.rec.mark(|id| sim.metric_value(id))),
        }
    }
}

/// The states one run has seen, for [`Recurrence::observe`].
#[derive(Default)]
pub(crate) struct Recurrence {
    /// Fingerprints seen, sized for the run's steps up front.
    seen: HashSet<u64>,
    /// Kept states: fingerprint, encoding, and the mark taken with it.
    states: Vec<(u64, Vec<u8>, Mark)>,
    /// Bytes of encoded state kept.
    kept_bytes: usize,
    buf: Vec<u8>,
    /// The last one-shot event pending when one last was: no state
    /// before it can recur.
    blocked_until: SimTime,
}

impl Recurrence {
    /// A watcher for a run with about `steps` steps left.
    pub(crate) fn new(steps: u64) -> Recurrence {
        Recurrence {
            seen: HashSet::with_capacity(steps.min(1 << 16) as usize),
            ..Recurrence::default()
        }
    }

    /// Look at the run's state at instant `at`, every event up to it
    /// handled and none after. Returns the mark of an earlier instant
    /// whose behavioural state equals this one, byte for byte.
    pub(crate) fn observe(&mut self, sim: &NetSim, at: SimTime) -> Option<Mark> {
        if at < self.blocked_until {
            return None;
        }
        let fp = fingerprint(sim, at);
        if self.seen.insert(fp) {
            return None;
        }
        // A pending one-shot event (a flow start or stop, a route update,
        // a fault, a switch restore) cannot be pending at the same offset
        // twice, so no state recurs until the last one has fired; only
        // one-shot events create others.
        let mut last_one_shot = None;
        sim.queue.for_each_live(|_, t, ev| {
            if matches!(
                ev,
                Ev::FlowStart { .. }
                    | Ev::FlowStop { .. }
                    | Ev::RouteUpdate { .. }
                    | Ev::Fault { .. }
                    | Ev::SwitchRestore { .. }
            ) {
                last_one_shot = last_one_shot.max(Some(t));
            }
        });
        if let Some(t) = last_one_shot {
            self.blocked_until = t;
            return None;
        }
        self.buf.clear();
        encode(sim, at, &mut self.buf);
        let hit = (self.states.iter()).position(|(f, bytes, _)| *f == fp && *bytes == self.buf);
        if let Some(i) = hit {
            let mark = self.states.swap_remove(i).2;
            // Nothing is observed after a recurrence: free the store now.
            *self = Recurrence::default();
            return Some(mark);
        }
        if self.states.len() < MAX_STATES && self.kept_bytes + self.buf.len() <= MAX_STATE_BYTES {
            self.kept_bytes += self.buf.len();
            self.states
                .push((fp, self.buf.clone(), Mark::take(sim, at)));
        }
        None
    }
}

/// FNV-style word mixer for [`fingerprint`].
struct Mix(u64);

impl Mix {
    #[inline]
    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A cheap digest of the parts of the state that move most: per switch
/// its buffer, each ingress's per-class bytes and pause bits, each
/// egress's per-class queue lengths and whether it is sending; per flow
/// its source backlog; the pending events' count and the next one's
/// offset. Equal states have equal fingerprints.
pub(crate) fn fingerprint(sim: &NetSim, at: SimTime) -> u64 {
    let mut h = Mix(0xcbf2_9ce4_8422_2325);
    h.word(sim.queue.len() as u64);
    h.word(sim.meaningful);
    h.word(sim.queue.peek_time().map_or(0, |t| (t - at).as_ps()));
    for rt in &sim.dp.flows.rt {
        h.word(rt.backlog.len() as u64);
    }
    for sw in sim.dp.switches.iter().flatten() {
        h.word(sw.buffered.get());
        for ing in &sw.ingress {
            for c in ing.count {
                h.word(c.get());
            }
            let bits = (ing.pause_sent.iter()).fold(0u64, |b, &p| b << 1 | u64::from(p));
            h.word(bits);
        }
        for eg in &sw.egress {
            for q in eg.queues.iter() {
                h.word(q.len as u64);
            }
            h.word(u64::from(eg.in_flight.is_some()));
        }
    }
    h.0
}

/// Appends one state's behavioural encoding to an output buffer.
struct Enc<'a> {
    out: &'a mut Vec<u8>,
    /// The instant encoded: times are relative to it.
    at: SimTime,
}

impl Enc<'_> {
    fn u64(&mut self, x: u64) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }

    fn u128(&mut self, x: u128) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn flag(&mut self, b: bool) {
        self.out.push(u8::from(b));
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn bytes(&mut self, b: Bytes) {
        self.u64(b.get());
    }

    /// Relative time, exact and signed.
    fn rel(&mut self, t: SimTime) {
        self.u128((t.as_ps() as i128 - self.at.as_ps() as i128) as u128);
    }

    /// A deadline: every one already passed reads as zero.
    fn deadline(&mut self, t: SimTime) {
        self.u64(t.saturating_since(self.at).as_ps());
    }

    fn opt<T>(&mut self, x: Option<T>, mut f: impl FnMut(&mut Self, T)) {
        self.flag(x.is_some());
        if let Some(x) = x {
            f(self, x);
        }
    }
}

/// Append the behavioural state of `sim` at instant `at` (see the
/// module doc): times are encoded relative to `at`.
pub(crate) fn encode(sim: &NetSim, at: SimTime, out: &mut Vec<u8>) {
    let NetSim {
        dp,
        cp,
        queue,
        meaningful,
        // Write-only: a jump extends it; the jump stops short of
        // `max_events`, its only reader.
        events: _,
        // Fixed for the run.
        horizon: _,
        started: _,
        finished: _,
        // Write-only.
        stats,
        telem,
        // The gate admits no run with a fluid flow.
        hybrid: _,
        // Read only when the run starts.
        drain_stop: _,
        fast_forward: _,
    } = sim;
    let mut e = Enc { out, at };
    e.u64(*meaningful);
    // Pending events in pop order, each with its sequence number's rank.
    let entries = queue.live_entries();
    let mut seqs: Vec<u64> = entries.iter().map(|&(_, seq, _)| seq).collect();
    seqs.sort_unstable();
    e.len(entries.len());
    for (at, seq, ev) in &entries {
        e.rel(*at);
        e.len(seqs.binary_search(seq).expect("a live sequence number"));
        event(&mut e, dp, ev);
    }
    datapath(&mut e, dp);
    control(&mut e, cp);
    // Of the statistics, handlers read which channels have a pause log
    // and whether its span is open; the rest is write-only.
    e.len(stats.pause.len());
    for (key, log) in &stats.pause {
        e.u64(key.from.0 as u64);
        e.u64(key.to.0 as u64);
        e.u64(key.priority.0 as u64);
        e.flag(log.intervals.is_open());
    }
    e.opt(telem.as_deref(), |e, t| telemetry(e, t, sim));
}

fn event(e: &mut Enc, dp: &Datapath, ev: &Ev) {
    let mut ids = |tag: u64, ids: &[u64]| {
        e.u64(tag);
        for &x in ids {
            e.u64(x);
        }
    };
    match *ev {
        Ev::Arrive { node, port, frame } => {
            ids(0, &[node.0 as u64, port.0 as u64]);
            match &dp.frames.slots[frame as usize] {
                Frame::Data(p) => {
                    e.flag(true);
                    packet(e, dp, p);
                }
                Frame::Pfc(f) => {
                    e.flag(false);
                    pfc_frame(e, f);
                }
            }
        }
        Ev::TxDone { node, port } => ids(1, &[node.0 as u64, port.0 as u64]),
        Ev::HostTxDone { host } => ids(2, &[host.0 as u64]),
        Ev::HostWake { host } => ids(3, &[host.0 as u64]),
        Ev::FlowTick { flow } => ids(4, &[flow.0 as u64]),
        Ev::OnOffToggle { flow } => ids(5, &[flow.0 as u64]),
        Ev::FlowStart { flow } => ids(6, &[flow.0 as u64]),
        Ev::FlowStop { flow } => ids(7, &[flow.0 as u64]),
        Ev::ShaperRelease { node, port } => ids(8, &[node.0 as u64, port.0 as u64]),
        Ev::PauseRefresh { node, port, prio } => {
            ids(9, &[node.0 as u64, port.0 as u64, prio as u64])
        }
        Ev::PauseExpire { node, port, prio } => {
            ids(10, &[node.0 as u64, port.0 as u64, prio as u64])
        }
        Ev::Cnp { flow } => ids(11, &[flow.0 as u64]),
        Ev::RttSample { flow, rtt_ps } => ids(12, &[flow.0 as u64, rtt_ps]),
        Ev::DcqcnAlpha { flow } => ids(13, &[flow.0 as u64]),
        Ev::DcqcnRate { flow } => ids(14, &[flow.0 as u64]),
        // One-shot: their index never repeats (see the module doc).
        Ev::RouteUpdate { idx } => ids(15, &[idx as u64]),
        Ev::Fault { idx } => ids(16, &[idx as u64]),
        Ev::SwitchRestore { node } => ids(17, &[node.0 as u64]),
        Ev::Sample => ids(18, &[]),
        Ev::DeadlockScan => ids(19, &[]),
        Ev::RecoveryScan => ids(20, &[]),
        Ev::TelemetrySample => ids(21, &[]),
    }
}

fn packet(e: &mut Enc, dp: &Datapath, p: &Packet) {
    let Packet {
        // Write-only: trace events carry them, and the gate admits no
        // traced run.
        id: _,
        flow,
        src,
        dst,
        size,
        ttl,
        priority,
        seq: _,
        injected_at,
        ecn_marked,
    } = *p;
    e.u64(flow.0 as u64);
    e.u64(src.0 as u64);
    e.u64(dst.0 as u64);
    e.bytes(size);
    e.u64(ttl as u64);
    e.u64(priority.0 as u64);
    e.flag(ecn_marked);
    // TIMELY's delivery reads the packet's age; nothing else does.
    if matches!(dp.flows.spec[dp.fidx(flow)].demand, Demand::Timely) {
        e.rel(injected_at);
    }
}

fn pfc_frame(e: &mut Enc, f: &PfcFrame) {
    let PfcFrame { priority, op } = *f;
    e.u64(priority.0 as u64);
    match op {
        PfcOp::Pause { quanta } => e.u64(quanta as u64),
        PfcOp::Resume => e.u64(u64::MAX),
    }
}

fn datapath(e: &mut Enc, dp: &Datapath) {
    let Datapath {
        // Fixed for the run, or derived from what is.
        topo: _,
        cfg: _,
        port_info: _,
        port_base: _,
        quantum: _,
        switch_pfc: _,
        pause_headroom: _,
        dcqcn_cfg,
        timely_cfg: _,
        traced: _,
        trace_cap: _,
        // Derived from the pending `PauseExpire` events.
        pause_timer: _,
        tx_pause,
        switches,
        hosts,
        flows,
        host_in_flight,
        // Its live slots are encoded through the events that name them.
        frames: _,
        link_up,
        pfc_loss,
        pfc_delay,
        rng,
        next_pkt_id: _,
    } = dp;
    for &p in tx_pause {
        match p {
            TxPause::Open => e.u64(0),
            TxPause::UntilResume => e.u64(1),
            TxPause::Until(t) => {
                e.u64(2);
                e.deadline(t);
            }
        }
    }
    for sw in switches.iter().flatten() {
        switch(e, dp, sw);
    }
    for h in hosts.iter().flatten() {
        host(e, h);
    }
    flow_arena(e, dp, flows, dcqcn_cfg.map(|c| c.cnp_interval));
    for p in host_in_flight {
        e.opt(p.as_ref(), |e, p| packet(e, dp, p));
    }
    for &up in link_up {
        e.flag(up);
    }
    for p in pfc_loss {
        e.opt(*p, |e, p| e.f64(p));
    }
    for d in pfc_delay {
        e.opt(*d, |e, d| e.u64(d.as_ps()));
    }
    e.u64(rng.state());
}

fn switch(e: &mut Enc, dp: &Datapath, sw: &Switch) {
    let Switch {
        node: _,
        ingress,
        egress,
        buffered,
    } = sw;
    e.bytes(*buffered);
    for ing in ingress {
        let Ingress {
            count,
            pause_sent,
            shaper,
            shaper_q,
            shaper_scheduled,
            // Set before the run.
            xoff_override: _,
            xon_override: _,
            per_flow,
        } = ing;
        for &c in count {
            e.bytes(c);
        }
        for &p in pause_sent {
            e.flag(p);
        }
        e.opt(shaper.as_ref(), |e, tb| {
            let crate::shaper::TokenBucket {
                rate: _,
                burst,
                credit,
                last_update,
            } = *tb;
            e.u128(credit);
            // A full bucket stays full whatever time has passed.
            if credit < burst.bits() as u128 * pfcsim_simcore::time::PS_PER_SEC as u128 {
                e.rel(last_update);
            }
        });
        e.len(shaper_q.len());
        for p in shaper_q {
            packet(e, dp, p);
        }
        e.flag(*shaper_scheduled);
        let FlowLedger { entries } = per_flow;
        e.len(entries.len());
        for &((prio, flow), b) in entries {
            e.u64(prio as u64);
            e.u64(flow.0 as u64);
            e.bytes(b);
        }
    }
    for eg in egress {
        let Egress {
            queues,
            ctrl,
            wrr_cursor,
            in_flight,
            phantom,
        } = eg;
        for q in queues.iter() {
            egress_queue(e, dp, q);
        }
        e.len(ctrl.len());
        for f in ctrl {
            pfc_frame(e, f);
        }
        e.u64(*wrr_cursor as u64);
        e.opt(in_flight.as_ref(), |e, f| match f {
            InFlight::Data(qp) => {
                e.flag(true);
                qpkt(e, dp, qp);
            }
            InFlight::Pfc(f) => {
                e.flag(false);
                pfc_frame(e, f);
            }
        });
        for &(vq, last) in phantom {
            e.bytes(vq);
            // An empty phantom queue has nothing to drain.
            if !vq.is_zero() {
                e.rel(last);
            }
        }
    }
}

fn qpkt(e: &mut Enc, dp: &Datapath, qp: &QPkt) {
    let QPkt { pkt, ingress } = qp;
    packet(e, dp, pkt);
    e.u64(ingress.0 as u64);
}

fn egress_queue(e: &mut Enc, dp: &Datapath, q: &EgressQueue) {
    let EgressQueue {
        subs,
        rr,
        deficit,
        fifo,
        by_ingress,
        bytes,
        len,
    } = q;
    e.len(subs.len());
    for sub in subs {
        e.len(sub.len());
        for qp in sub {
            qpkt(e, dp, qp);
        }
    }
    e.len(rr.len());
    for p in rr {
        e.u64(p.0 as u64);
    }
    e.len(deficit.len());
    for &d in deficit {
        e.u64(d);
    }
    e.len(fifo.len());
    for qp in fifo {
        qpkt(e, dp, qp);
    }
    e.len(by_ingress.len());
    for &b in by_ingress {
        e.u64(b);
    }
    e.bytes(*bytes);
    e.len(*len);
}

fn host(e: &mut Enc, h: &Host) {
    let Host {
        node: _,
        rr,
        busy,
        wake_at,
        // Write-only.
        received: _,
    } = h;
    e.len(rr.len());
    for f in rr {
        e.u64(f.0 as u64);
    }
    e.flag(*busy);
    e.opt(*wake_at, |e, t| e.rel(t));
}

fn flow_arena(e: &mut Enc, dp: &Datapath, flows: &FlowArena, cnp_interval: Option<SimDuration>) {
    let FlowArena {
        // Fixed once the run starts: start and stop times became events.
        spec,
        rt,
        // Write-only; telemetry reads delivered bytes as a difference.
        stats: _,
        touched,
        map: _,
        pinned: _,
    } = flows;
    for (spec, rt) in spec.iter().zip(rt) {
        let FlowRt {
            active,
            // Write-only: packet sequence numbers.
            next_seq: _,
            backlog,
            injected,
            next_send,
            rng,
            on,
            dcqcn,
            timely,
            last_cnp,
            // Fixed once the run starts.
            feedback_delay: _,
        } = rt;
        e.flag(*active);
        e.len(backlog.len());
        for p in backlog {
            packet(e, dp, p);
        }
        // A finite burst stops at its total; other sources only count.
        if matches!(spec.demand, Demand::CbrFinite { .. }) {
            e.bytes(*injected);
        }
        e.deadline(*next_send);
        e.opt(rng.as_ref(), |e, r| e.u64(r.state()));
        e.flag(*on);
        e.opt(dcqcn.as_ref(), |e, s| {
            let DcqcnState {
                rate,
                target,
                alpha,
                bytes_since_stage,
                bc_stage,
                timer_stage,
                cnp_since_alpha_tick,
            } = *s;
            e.u64(rate.bps());
            e.u64(target.bps());
            e.f64(alpha);
            e.bytes(bytes_since_stage);
            e.u64(bc_stage as u64);
            e.u64(timer_stage as u64);
            e.flag(cnp_since_alpha_tick);
        });
        e.opt(timely.as_ref(), |e, s| {
            let TimelyState {
                rate,
                prev_rtt_ps,
                rtt_diff_ps,
                increase_streak,
            } = *s;
            e.u64(rate.bps());
            e.opt(prev_rtt_ps, |e, p| e.u64(p));
            e.f64(rtt_diff_ps);
            e.u64(increase_streak as u64);
        });
        // A CNP is due once `cnp_interval` has passed since the last.
        e.opt(*last_cnp, |e, t| {
            let since = e.at.saturating_since(t);
            e.u64(cnp_interval.map_or(since, |c| since.min(c)).as_ps());
        });
    }
    for &t in touched {
        e.flag(t);
    }
}

fn control(e: &mut Enc, cp: &ControlPlane) {
    let ControlPlane {
        // Changed only by pending one-shot events (see the module doc).
        tables: _,
        route_updates: _,
        fault_events: _,
        reboots: _,
        fault_rng,
        dl,
        last_clean_scan,
        // Write-only.
        scans_run: _,
        scans_skipped: _,
        cross_check_deadlock: _,
        deadlock,
        // Fixed once the run starts.
        watch_keys: _,
        sample_keys: _,
    } = cp;
    e.u64(fault_rng.state());
    let DeadlockTracker {
        // Fixed: the channel arena.
        slot_node: _,
        slot_port: _,
        slot_peer: _,
        candidate: _,
        paused,
        paused_count,
        // Write-only, but for whether it still equals the epoch of the
        // last clean scan: a scan is skipped iff it does, and once it
        // has moved on it can never come back.
        epoch,
        // Scan scratch, cleared before every use.
        stuck: _,
        stuck_at_node: _,
        frozen: _,
        in_frozen: _,
        in_work: _,
        work: _,
        touched_nodes: _,
        node_touched: _,
    } = dl;
    e.len(*paused_count);
    for c in paused.iter_ones() {
        e.len(c);
    }
    e.flag(*last_clean_scan == Some(*epoch));
    // Whether a deadlock was confirmed; what it was is write-only.
    e.flag(deadlock.is_some());
}

fn telemetry(e: &mut Enc, t: &TelemetryState, sim: &NetSim) {
    let TelemetryState {
        cfg,
        rec,
        // Where a JSONL sink's events go: no state of the run.
        file: _,
        // Fixed once the run starts.
        probe_keys: _,
    } = t;
    let TelemetryRecord {
        // Write-only, and the gate admits only a sink that counts.
        report: _,
        sink: _,
        last_pause_dur,
        last_closed,
        last_flow_bytes,
        last_sample_at,
    } = rec;
    e.rel(*last_sample_at);
    if cfg.pause_probe {
        // The probe reads each channel's paused time and closed spans
        // since its last sample, and an open span's start.
        for (key, log) in &sim.stats.pause {
            let prev = last_pause_dur.get(key);
            e.flag(prev.is_some());
            let since = log.intervals.total_duration(e.at) - prev.copied().unwrap_or_default();
            e.u64(since.as_ps());
            let spans = log.intervals.intervals();
            let closed = spans.len() - usize::from(log.intervals.is_open());
            let prev = last_closed.get(key);
            e.flag(prev.is_some());
            let prev = prev.copied().unwrap_or(0);
            e.len(closed - prev);
            for &(s, end) in &spans[prev..closed] {
                e.u64((end.expect("closed span") - s).as_ps());
            }
            if log.intervals.is_open() {
                e.rel(spans[closed].0);
            }
        }
    }
    if cfg.goodput_probe {
        e.len(last_flow_bytes.len());
        for (i, &prev) in last_flow_bytes.iter().enumerate() {
            e.u64(sim.dp.flows.stats[i].delivered_bytes.get() - prev);
        }
    }
}

/// Runs that fast-forwarded in this process, for `fast_forwarded_runs`.
static FAST_FORWARDED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many runs in this process have fast-forwarded a periodic steady
/// state: [`NetSim::run`], [`NetSim::run_with_drain`] and
/// [`NetSim::run_to_verdict`] calls alike.
pub fn fast_forwarded_runs() -> u64 {
    FAST_FORWARDED.load(std::sync::atomic::Ordering::Relaxed)
}

impl NetSim {
    /// The step of a run that may fast-forward, or `None` where it may
    /// not. It decides whether a started run may skip periods; whether
    /// it may classify flows fluid is `NetSim::hybrid_gate_reason`'s
    /// decision, made in `start()`. A run needs a detector cadence to
    /// step at, and is refused when it classified a flow fluid (fluid
    /// folds are not periodic state), traces packets (a trace is a log
    /// of packet ids), sends telemetry events to a sink that keeps them,
    /// or arms recovery (which drains queues by scan, not by state).
    pub(super) fn fast_forward_step(&self) -> Option<SimDuration> {
        let step = self
            .dp
            .cfg
            .deadlock_scan_interval
            .filter(|s| !s.is_zero())?;
        let hybrid = self.hybrid.is_some();
        let traced = self.dp.traced.contains(&true);
        let sink = (self.telem.as_deref())
            .is_some_and(|t| !matches!(t.cfg.sink, crate::telemetry::TraceSinkKind::Null));
        let recovery = self.dp.cfg.recovery.is_some();
        (!hybrid && !traced && !sink && !recovery).then_some(step)
    }

    /// After a step to `at`: if the run is back in a state `rec` has
    /// seen, skip the whole periods that fit before the horizon and
    /// return the instant the run is at now (watching any further is
    /// pointless); `None` to keep watching. The jump stops where every
    /// pending sampling, scan or telemetry event is one the full run
    /// would have scheduled, and before the run's `max_events`-th event.
    pub(super) fn fast_forward(&mut self, rec: &mut Recurrence, at: SimTime) -> Option<SimTime> {
        let mark = rec.observe(self, at)?;
        let period = at - mark.at;
        // Samples, scans and telemetry ticks reschedule only up to the
        // horizon: each pending one must land where the full run has one.
        let mut reach = SimDuration::ZERO;
        self.queue.for_each_live(|_, t, ev| {
            if !super::is_meaningful(ev) {
                reach = reach.max(t - at);
            }
        });
        let room = self.horizon.saturating_since(at + reach);
        let mut k = room.div_duration(period);
        let max_events = self.dp.cfg.max_events;
        let per = self.events - mark.events;
        if max_events > 0 && per > 0 {
            k = k.min((max_events - 1).saturating_sub(self.events) / per);
        }
        if k == 0 {
            return Some(at);
        }
        let metrics = (self.telem.as_deref())
            .map(|t| t.rec.report.registry.values(|id| self.metric_value(id)))
            .unwrap_or_default();
        // The image takes the write-only record over instead of copying
        // it: the simulator is replaced by its resumed image below.
        let stats = std::mem::take(&mut self.stats);
        let report = (self.telem.as_deref_mut()).map(TelemetryState::take_report);
        let mut ckpt = self
            .checkpoint()
            .expect("the gate admits checkpointable runs");
        ckpt.stats = stats;
        if let (Some(t), Some(report)) = (ckpt.telemetry.as_mut(), report) {
            t.report = report;
        }
        ckpt.skip_periods(&mark, period, &metrics, k);
        let (cross_check, drain_stop) = (self.cp.cross_check_deadlock, self.drain_stop);
        *self = NetSim::resume(ckpt).expect("a checkpoint of this run resumes");
        self.cp.cross_check_deadlock = cross_check;
        self.drain_stop = drain_stop;
        self.fast_forward = Some(FastForward {
            recurred_at: at,
            period,
            periods_skipped: k,
        });
        FAST_FORWARDED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(at + period.saturating_mul(k))
    }
}

#[cfg(test)]
mod tests {
    //! The encoder against its classification, field by field: two
    //! states that differ in one behavioural field must encode
    //! differently, and two that differ in one write-only field alike.

    use super::*;
    use crate::config::EcnConfig;
    use crate::dcqcn::DcqcnConfig;
    use crate::flow::FlowSpec;
    use crate::shaper::TokenBucket;
    use crate::telemetry::TelemetryConfig;
    use crate::timely::TimelyConfig;
    use pfcsim_simcore::rng::SimRng;
    use pfcsim_simcore::time::SimDuration;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{square, LinkSpec};
    use pfcsim_topo::ids::{FlowId, NodeId, PortNo, Priority};

    use crate::stats::PauseKey;
    use crate::switch::QPkt;

    /// The square with a CBR, a TIMELY, a finite-CBR and a DCQCN flow,
    /// ECN and `sampling_only` telemetry on, 20 µs in.
    fn base() -> NetSim {
        let b = square(LinkSpec::default());
        let h = &b.hosts;
        let mut cfg = crate::config::SimConfig::default();
        cfg.ecn = Some(EcnConfig::default());
        cfg.telemetry = TelemetryConfig::sampling_only();
        let mut sim = super::super::SimBuilder::new(&b.topo).config(cfg).build();
        let rate = BitRate::from_gbps(40);
        sim.set_dcqcn(DcqcnConfig::for_line_rate(rate));
        sim.set_timely(TimelyConfig::for_line_rate(rate));
        sim.add_flow(FlowSpec::cbr(0, h[0], h[2], BitRate::from_gbps(8)));
        sim.add_flow(FlowSpec::timely(1, h[1], h[3]));
        sim.add_flow(FlowSpec {
            demand: Demand::CbrFinite {
                rate: BitRate::from_gbps(8),
                total: Bytes::from_kb(100),
            },
            ..FlowSpec::infinite(2, h[2], h[0])
        });
        sim.add_flow(FlowSpec {
            demand: Demand::Dcqcn,
            ..FlowSpec::infinite(3, h[3], h[1])
        });
        let t = SimTime::from_us(20);
        assert!(sim.advance_until(t, SimTime::from_ms(1)).is_none());
        sim
    }

    fn enc(sim: &NetSim) -> Vec<u8> {
        let mut out = Vec::new();
        encode(sim, SimTime::from_us(20), &mut out);
        out
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    fn pkt(sim: &NetSim, flow: u32) -> Packet {
        let spec = &sim.dp.flows.spec[sim.dp.fidx(FlowId(flow))];
        Packet {
            id: 0,
            flow: spec.id,
            src: spec.src,
            dst: spec.dst,
            size: Bytes::new(1000),
            ttl: 9,
            priority: spec.priority,
            seq: 0,
            injected_at: at(5),
            ecn_marked: false,
        }
    }

    fn sw(sim: &mut NetSim) -> &mut Switch {
        sim.dp.switches[0].as_mut().expect("S0 is a switch")
    }

    fn rt(sim: &mut NetSim, row: usize) -> &mut FlowRt {
        &mut sim.dp.flows.rt[row]
    }

    fn queue_pkt(sim: &mut NetSim, p: Packet, ingress: u16) {
        let arb = sim.dp.cfg.arbitration;
        sw(sim).egress[0].queues.class_mut(3).push(
            QPkt {
                pkt: p,
                ingress: PortNo(ingress),
            },
            arb,
        );
    }

    fn with_pkt(f: fn(&mut Packet)) -> impl Fn(&mut NetSim) {
        move |sim| {
            let mut p = pkt(sim, 0);
            f(&mut p);
            queue_pkt(sim, p, 1);
        }
    }

    /// A packet of flow 0 arriving at S0, edited by `f`.
    fn arriving(f: fn(&mut Packet)) -> impl Fn(&mut NetSim) {
        move |sim| {
            let mut p = pkt(sim, 0);
            f(&mut p);
            arrive(sim, Frame::Data(p));
        }
    }

    fn fifo(sim: &mut NetSim, ingress: u16) {
        let qp = QPkt {
            pkt: pkt(sim, 0),
            ingress: PortNo(ingress),
        };
        sw(sim).egress[0].queues.class_mut(3).fifo.push_back(qp);
    }

    fn bucket(credit: u128) -> Option<TokenBucket> {
        let mut tb = TokenBucket::new(BitRate::from_gbps(1), Bytes::from_kb(2));
        tb.credit = credit;
        Some(tb)
    }

    fn telem(sim: &mut NetSim) -> &mut TelemetryState {
        sim.telem.as_mut().expect("telemetry on")
    }

    fn arrive(sim: &mut NetSim, frame: Frame) {
        let frame = sim.dp.frames.alloc(frame);
        let (node, port) = (NodeId(0), PortNo(1));
        sim.sched(at(25), Ev::Arrive { node, port, frame });
    }

    fn pause_key() -> PauseKey {
        PauseKey {
            from: NodeId(1),
            to: NodeId(0),
            priority: Priority(5),
            link: 0,
        }
    }

    /// A pause log on `pause_key()`: one closed span of `closed` µs
    /// ending at 10 µs, then one open since `open` µs if given.
    fn pause_log(sim: &mut NetSim, closed: u64, open: Option<u64>) {
        let log = sim.stats.pause.entry(pause_key()).or_default();
        log.intervals.open(at(10 - closed));
        log.intervals.close(at(10));
        if let Some(t) = open {
            log.intervals.open(at(t));
        }
    }

    type Edit = Box<dyn Fn(&mut NetSim)>;

    /// Pairs of edits to `base()` that leave one behavioural field
    /// different.
    fn behavioural() -> Vec<(&'static str, Edit, Edit)> {
        let pfc = |p: u8, op: PfcOp| PfcFrame {
            priority: Priority(p),
            op,
        };
        let resume = PfcOp::Resume;
        let pause = PfcOp::Pause { quanta: 7 };
        let frame = move |p: u8| InFlight::Pfc(pfc(p, PfcOp::Resume));
        vec![
            (
                "meaningful",
                Box::new(|_| {}),
                Box::new(|s| s.meaningful += 1),
            ),
            (
                "event time",
                Box::new(|s| s.sched(at(30), Ev::Sample)),
                Box::new(|s| s.sched(at(31), Ev::Sample)),
            ),
            (
                "event sequence rank",
                Box::new(|s| {
                    s.sched(at(30), Ev::HostWake { host: NodeId(4) });
                    s.sched(at(31), Ev::HostWake { host: NodeId(5) });
                }),
                Box::new(|s| {
                    s.sched(at(31), Ev::HostWake { host: NodeId(5) });
                    s.sched(at(30), Ev::HostWake { host: NodeId(4) });
                }),
            ),
            (
                "event payload",
                Box::new(|s| s.sched(at(30), Ev::HostWake { host: NodeId(4) })),
                Box::new(|s| s.sched(at(30), Ev::HostWake { host: NodeId(5) })),
            ),
            (
                "arriving packet",
                Box::new(|s| arrive(s, Frame::Data(pkt(s, 0)))),
                Box::new(|s| {
                    let p = Packet {
                        ttl: 3,
                        ..pkt(s, 0)
                    };
                    arrive(s, Frame::Data(p))
                }),
            ),
            (
                "arriving PFC frame",
                Box::new(move |s| arrive(s, Frame::Pfc(pfc(3, resume)))),
                Box::new(move |s| arrive(s, Frame::Pfc(pfc(4, resume)))),
            ),
            (
                "pause-log channel",
                Box::new(|s| {
                    s.stats.pause.entry(pause_key()).or_default();
                }),
                Box::new(|s| {
                    let key = PauseKey {
                        priority: Priority(6),
                        ..pause_key()
                    };
                    s.stats.pause.entry(key).or_default();
                }),
            ),
            (
                "pause-log open",
                Box::new(|s| {
                    telem(s).cfg.pause_probe = false;
                    pause_log(s, 1, None);
                }),
                Box::new(|s| {
                    telem(s).cfg.pause_probe = false;
                    pause_log(s, 1, Some(15));
                }),
            ),
            (
                "packet flow",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.flow = FlowId(2))),
            ),
            (
                "packet src",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.src = NodeId(5))),
            ),
            (
                "packet dst",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.dst = NodeId(7))),
            ),
            (
                "packet size",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.size = Bytes::new(999))),
            ),
            (
                "packet ttl",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.ttl = 8)),
            ),
            (
                "packet priority",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.priority = Priority(2))),
            ),
            (
                "packet ECN mark",
                Box::new(arriving(|_| {})),
                Box::new(arriving(|p| p.ecn_marked = true)),
            ),
            (
                "TIMELY packet age",
                Box::new(|s| queue_pkt(s, pkt(s, 1), 1)),
                Box::new(|s| {
                    queue_pkt(
                        s,
                        Packet {
                            injected_at: at(6),
                            ..pkt(s, 1)
                        },
                        1,
                    )
                }),
            ),
            (
                "PFC frame class",
                Box::new(move |s| sw(s).egress[0].ctrl.push_back(pfc(3, pause))),
                Box::new(move |s| sw(s).egress[0].ctrl.push_back(pfc(4, pause))),
            ),
            (
                "PFC frame op",
                Box::new(move |s| sw(s).egress[0].ctrl.push_back(pfc(3, pause))),
                Box::new(move |s| sw(s).egress[0].ctrl.push_back(pfc(3, resume))),
            ),
            (
                "pause deadline",
                Box::new(|s| s.dp.tx_pause[3] = TxPause::Until(at(25))),
                Box::new(|s| s.dp.tx_pause[3] = TxPause::Until(at(26))),
            ),
            (
                "pause state",
                Box::new(|s| s.dp.tx_pause[3] = TxPause::Open),
                Box::new(|s| s.dp.tx_pause[3] = TxPause::UntilResume),
            ),
            (
                "switch buffer",
                Box::new(|_| {}),
                Box::new(|s| sw(s).buffered += Bytes::new(1)),
            ),
            (
                "ingress bytes",
                Box::new(|_| {}),
                Box::new(|s| sw(s).ingress[1].count[5] += Bytes::new(1)),
            ),
            (
                "ingress pause sent",
                Box::new(|_| {}),
                Box::new(|s| sw(s).ingress[1].pause_sent[5] ^= true),
            ),
            (
                "shaper credit",
                Box::new(|s| sw(s).ingress[1].shaper = bucket(0)),
                Box::new(|s| sw(s).ingress[1].shaper = bucket(1)),
            ),
            (
                "shaper refill time",
                Box::new(|s| sw(s).ingress[1].shaper = bucket(0)),
                Box::new(|s| {
                    let tb = bucket(0).map(|tb| TokenBucket {
                        last_update: at(1),
                        ..tb
                    });
                    sw(s).ingress[1].shaper = tb;
                }),
            ),
            (
                "shaper queue",
                Box::new(|_| {}),
                Box::new(|s| {
                    let p = pkt(s, 0);
                    sw(s).ingress[1].shaper_q.push_back(p);
                }),
            ),
            (
                "shaper release pending",
                Box::new(|_| {}),
                Box::new(|s| sw(s).ingress[1].shaper_scheduled ^= true),
            ),
            (
                "per-flow ledger",
                Box::new(|_| {}),
                Box::new(|s| sw(s).ingress[1].per_flow.add(3, FlowId(0), Bytes::new(1))),
            ),
            ("egress queue", Box::new(|_| {}), Box::new(with_pkt(|_| {}))),
            (
                "control frames",
                Box::new(|_| {}),
                Box::new(move |s| sw(s).egress[0].ctrl.push_back(pfc(3, pause))),
            ),
            (
                "WRR cursor",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].wrr_cursor += 1),
            ),
            (
                "frame on the wire",
                Box::new(move |s| sw(s).egress[0].in_flight = Some(frame(3))),
                Box::new(move |s| sw(s).egress[0].in_flight = Some(frame(4))),
            ),
            (
                "phantom queue",
                Box::new(|s| sw(s).egress[0].phantom[3] = (Bytes::new(100), at(20))),
                Box::new(|s| sw(s).egress[0].phantom[3] = (Bytes::new(101), at(20))),
            ),
            (
                "phantom drain time",
                Box::new(|s| sw(s).egress[0].phantom[3] = (Bytes::new(100), at(20))),
                Box::new(|s| sw(s).egress[0].phantom[3] = (Bytes::new(100), at(19))),
            ),
            (
                "queued packet's ingress",
                Box::new(|s| fifo(s, 1)),
                Box::new(|s| fifo(s, 2)),
            ),
            (
                "DRR subqueues",
                Box::new(|_| {}),
                Box::new(|s| {
                    sw(s).egress[0]
                        .queues
                        .class_mut(3)
                        .subs
                        .push(Default::default())
                }),
            ),
            (
                "DRR ring",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].queues.class_mut(3).rr.push_back(PortNo(2))),
            ),
            (
                "DRR deficit",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].queues.class_mut(3).deficit.push(1)),
            ),
            ("FIFO queue", Box::new(|_| {}), Box::new(|s| fifo(s, 1))),
            (
                "bytes by ingress",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].queues.class_mut(3).by_ingress.push(1)),
            ),
            (
                "queued bytes",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].queues.class_mut(3).bytes += Bytes::new(1)),
            ),
            (
                "queue length",
                Box::new(|_| {}),
                Box::new(|s| sw(s).egress[0].queues.class_mut(3).len += 1),
            ),
            (
                "host round robin",
                Box::new(|_| {}),
                Box::new(|s| s.dp.hosts[4].as_mut().expect("h0").rr.push_back(FlowId(9))),
            ),
            (
                "host busy",
                Box::new(|_| {}),
                Box::new(|s| s.dp.hosts[4].as_mut().expect("h0").busy ^= true),
            ),
            (
                "host wake",
                Box::new(|s| s.dp.hosts[4].as_mut().expect("h0").wake_at = Some(at(30))),
                Box::new(|s| s.dp.hosts[4].as_mut().expect("h0").wake_at = Some(at(31))),
            ),
            (
                "flow active",
                Box::new(|_| {}),
                Box::new(|s| rt(s, 0).active ^= true),
            ),
            (
                "flow backlog",
                Box::new(|_| {}),
                Box::new(|s| {
                    let p = pkt(s, 0);
                    rt(s, 0).backlog.push_back(p);
                }),
            ),
            (
                "finite flow's bytes",
                Box::new(|_| {}),
                Box::new(|s| rt(s, 2).injected += Bytes::new(1)),
            ),
            (
                "send deadline",
                Box::new(|s| rt(s, 1).next_send = at(30)),
                Box::new(|s| rt(s, 1).next_send = at(31)),
            ),
            (
                "flow RNG",
                Box::new(|s| rt(s, 0).rng = Some(SimRng::new(1))),
                Box::new(|s| rt(s, 0).rng = Some(SimRng::new(2))),
            ),
            (
                "on-off phase",
                Box::new(|_| {}),
                Box::new(|s| rt(s, 0).on ^= true),
            ),
            (
                "DCQCN state",
                Box::new(|_| {}),
                Box::new(|s| {
                    let st = rt(s, 3).dcqcn.as_mut().expect("started");
                    st.alpha /= 2.0;
                }),
            ),
            (
                "TIMELY state",
                Box::new(|_| {}),
                Box::new(|s| {
                    let st = rt(s, 1).timely.as_mut().expect("started");
                    st.increase_streak += 1;
                }),
            ),
            (
                "last CNP",
                Box::new(|s| rt(s, 3).last_cnp = Some(at(10))),
                Box::new(|s| rt(s, 3).last_cnp = Some(at(11))),
            ),
            (
                "flow touched",
                Box::new(|_| {}),
                Box::new(|s| s.dp.flows.touched[1] ^= true),
            ),
            (
                "NIC frame",
                Box::new(|_| {}),
                Box::new(|s| s.dp.host_in_flight[7] = Some(pkt(s, 3))),
            ),
            (
                "link state",
                Box::new(|_| {}),
                Box::new(|s| s.dp.link_up[0] ^= true),
            ),
            (
                "PFC loss armed",
                Box::new(|_| {}),
                Box::new(|s| s.dp.pfc_loss[0] = Some(0.5)),
            ),
            (
                "PFC delay armed",
                Box::new(|_| {}),
                Box::new(|s| s.dp.pfc_delay[0] = Some(SimDuration::from_us(1))),
            ),
            (
                "traffic RNG",
                Box::new(|_| {}),
                Box::new(|s| s.dp.rng = SimRng::new(99)),
            ),
            (
                "fault RNG",
                Box::new(|_| {}),
                Box::new(|s| s.cp.fault_rng = SimRng::new(99)),
            ),
            (
                "paused channel count",
                Box::new(|_| {}),
                Box::new(|s| s.cp.dl.paused_count += 1),
            ),
            (
                "paused channels",
                Box::new(|_| {}),
                Box::new(|s| {
                    s.cp.dl.paused.set(5);
                }),
            ),
            (
                "clean-scan epoch",
                Box::new(|s| s.cp.last_clean_scan = Some(s.cp.dl.epoch)),
                Box::new(|s| s.cp.last_clean_scan = Some(s.cp.dl.epoch - 1)),
            ),
            (
                "deadlock confirmed",
                Box::new(|_| {}),
                Box::new(|s| s.cp.deadlock = Some((at(1), Vec::new()))),
            ),
            (
                "telemetry window",
                Box::new(|s| s.telem.as_mut().expect("on").rec.last_sample_at = at(19)),
                Box::new(|s| s.telem.as_mut().expect("on").rec.last_sample_at = at(18)),
            ),
            (
                "paused time tracked",
                Box::new(|s| {
                    pause_log(s, 1, None);
                    let t = s.telem.as_mut().expect("on");
                    t.rec.last_pause_dur.insert(pause_key(), SimDuration::ZERO);
                }),
                Box::new(|s| pause_log(s, 1, None)),
            ),
            (
                "paused time since the last sample",
                Box::new(|s| {
                    pause_log(s, 1, None);
                    let t = s.telem.as_mut().expect("on");
                    t.rec.last_pause_dur.insert(pause_key(), SimDuration::ZERO);
                }),
                Box::new(|s| {
                    pause_log(s, 1, None);
                    let t = s.telem.as_mut().expect("on");
                    t.rec
                        .last_pause_dur
                        .insert(pause_key(), SimDuration::from_ps(1));
                }),
            ),
            (
                "closed spans tracked",
                Box::new(|s| {
                    pause_log(s, 1, None);
                    s.telem
                        .as_mut()
                        .expect("on")
                        .rec
                        .last_closed
                        .insert(pause_key(), 0);
                }),
                Box::new(|s| pause_log(s, 1, None)),
            ),
            (
                "spans closed since the last sample",
                Box::new(|s| {
                    pause_log(s, 1, None);
                    telem(s).rec.last_closed.insert(pause_key(), 0);
                    telem(s)
                        .rec
                        .last_pause_dur
                        .insert(pause_key(), SimDuration::ZERO);
                }),
                Box::new(|s| {
                    pause_log(s, 2, None);
                    telem(s).rec.last_closed.insert(pause_key(), 0);
                    let paused = SimDuration::from_us(1);
                    telem(s).rec.last_pause_dur.insert(pause_key(), paused);
                }),
            ),
            (
                "open span's start",
                Box::new(|s| {
                    pause_log(s, 1, Some(17));
                    telem(s)
                        .rec
                        .last_pause_dur
                        .insert(pause_key(), SimDuration::ZERO);
                }),
                Box::new(|s| {
                    pause_log(s, 1, Some(16));
                    let paused = SimDuration::from_us(1);
                    telem(s).rec.last_pause_dur.insert(pause_key(), paused);
                }),
            ),
            (
                "goodput since the last sample",
                Box::new(|_| {}),
                Box::new(|s| s.dp.flows.stats[0].delivered_bytes += Bytes::new(1)),
            ),
        ]
    }

    #[test]
    fn every_behavioural_field_is_encoded() {
        for (name, a, b) in behavioural() {
            let (mut x, mut y) = (base(), base());
            a(&mut x);
            b(&mut y);
            assert_ne!(enc(&x), enc(&y), "{name} is not encoded");
        }
    }

    #[test]
    fn write_only_fields_are_not_encoded() {
        let pairs: Vec<(&str, Edit, Edit)> = vec![
            ("event count", Box::new(|_| {}), Box::new(|s| s.events += 1)),
            (
                "packet ids",
                Box::new(|_| {}),
                Box::new(|s| s.dp.next_pkt_id += 1),
            ),
            (
                "sequence numbers",
                Box::new(|_| {}),
                Box::new(|s| rt(s, 0).next_seq += 1),
            ),
            (
                "bytes a CBR flow generated",
                Box::new(|_| {}),
                Box::new(|s| rt(s, 0).injected += Bytes::new(1)),
            ),
            (
                "bytes a host received",
                Box::new(|_| {}),
                Box::new(|s| s.dp.hosts[6].as_mut().expect("h2").received += Bytes::new(1)),
            ),
            (
                "flow counters",
                Box::new(|_| {}),
                Box::new(|s| s.dp.flows.stats[0].dropped_ttl += 1),
            ),
            (
                "network counters",
                Box::new(|_| {}),
                Box::new(|s| s.stats.pause_frames += 1),
            ),
            (
                "scan counters",
                Box::new(|_| {}),
                Box::new(|s| s.cp.scans_run += 1),
            ),
            (
                "epoch past a clean scan",
                Box::new(|s| (s.cp.last_clean_scan, s.cp.dl.epoch) = (Some(0), 2)),
                Box::new(|s| (s.cp.last_clean_scan, s.cp.dl.epoch) = (Some(0), 3)),
            ),
            (
                "a queued packet's id, number and age",
                Box::new(with_pkt(|_| {})),
                Box::new(with_pkt(|p| (p.id, p.seq, p.injected_at) = (77, 5, at(1)))),
            ),
        ];
        for (name, a, b) in pairs {
            let (mut x, mut y) = (base(), base());
            a(&mut x);
            b(&mut y);
            assert_eq!(enc(&x), enc(&y), "{name} is encoded");
        }
    }
}

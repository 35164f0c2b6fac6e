//! Shared-buffer switch state: per-(ingress, priority) PFC accounting,
//! per-(egress, priority) queues with DRR or FIFO arbitration, ingress
//! shapers, and pause state.
//!
//! The model mirrors the paper's NS-3 implementation (§3.2): "For each
//! ingress queue, the switch maintains a counter to track the bytes of
//! buffered packets received by this ingress queue. Once the queue length
//! exceeds the preset PFC threshold, the corresponding incoming link will
//! be paused." Packets are counted against their *arrival* port and
//! released when they finish transmitting out of the switch.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Sentinel padding for dense per-port vectors that grow on demand.
fn ensure_len<T: Default + Clone>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo, Priority};

use crate::config::{Arbitration, ClassScheduling};
use crate::packet::{Packet, PfcFrame};
use crate::shaper::TokenBucket;

/// A buffered packet tagged with the ingress port it is accounted to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QPkt {
    /// The packet.
    pub pkt: Packet,
    /// Ingress port whose PFC counter holds this packet's bytes.
    pub ingress: PortNo,
}

/// One (egress port, priority) queue.
///
/// In DRR mode packets are kept in per-ingress subqueues served
/// deficit-round-robin (quantum = MTU), giving the per-hop per-ingress-port
/// fairness of the paper's footnote 4. In FIFO mode a single arrival-order
/// queue is used.
///
/// All per-ingress state (`subs`, `deficit`, `by_ingress`) is dense,
/// indexed by ingress port number and grown on first use; switches have a
/// handful of ports, so the vectors stay tiny and cache-resident. The
/// `by_ingress` byte counters make [`EgressQueue::bytes_from_ingress`] —
/// the inner loop of the deadlock analyzer — O(1) instead of a walk over
/// every queued packet.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EgressQueue {
    /// Per-ingress-port subqueues (DRR mode), indexed by port number.
    pub(crate) subs: Vec<VecDeque<QPkt>>,
    pub(crate) rr: VecDeque<PortNo>,
    /// Per-ingress-port DRR deficit, indexed by port number. Always zero
    /// while the matching subqueue is empty.
    pub(crate) deficit: Vec<u64>,
    pub(crate) fifo: VecDeque<QPkt>,
    /// Queued bytes per ingress port (both modes), indexed by port number.
    pub(crate) by_ingress: Vec<u64>,
    pub(crate) bytes: Bytes,
    pub(crate) len: usize,
}

impl EgressQueue {
    /// Total queued bytes.
    pub fn bytes(&self) -> Bytes {
        self.bytes
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff this is `EgressQueue::default()`: no packet ever queued
    /// here left a trace.
    fn is_unused(&self) -> bool {
        let EgressQueue {
            subs,
            rr,
            deficit,
            fifo,
            by_ingress,
            bytes,
            len,
        } = self;
        subs.is_empty()
            && rr.is_empty()
            && deficit.is_empty()
            && fifo.is_empty()
            && by_ingress.is_empty()
            && bytes.is_zero()
            && *len == 0
    }

    /// Enqueue.
    pub fn push(&mut self, qp: QPkt, arb: Arbitration) {
        let ing = qp.ingress.0 as usize;
        self.bytes += qp.pkt.size;
        self.len += 1;
        ensure_len(&mut self.by_ingress, ing + 1);
        self.by_ingress[ing] += qp.pkt.size.get();
        match arb {
            Arbitration::Fifo => self.fifo.push_back(qp),
            Arbitration::Drr => {
                ensure_len(&mut self.subs, ing + 1);
                ensure_len(&mut self.deficit, ing + 1);
                let sub = &mut self.subs[ing];
                if sub.is_empty() {
                    self.rr.push_back(qp.ingress);
                }
                sub.push_back(qp);
            }
        }
    }

    /// Dequeue the next packet under the arbitration policy.
    pub fn pop(&mut self, arb: Arbitration, quantum: u64) -> Option<QPkt> {
        if self.len == 0 {
            return None;
        }
        let qp = match arb {
            Arbitration::Fifo => self.fifo.pop_front()?,
            Arbitration::Drr => {
                debug_assert!(quantum > 0, "DRR quantum must be positive");
                loop {
                    let front = self
                        .rr
                        .front()
                        .expect("non-empty queue has an active sub")
                        .0 as usize;
                    let head_size = self.subs[front]
                        .front()
                        .expect("active sub is non-empty")
                        .pkt
                        .size
                        .get();
                    let d = &mut self.deficit[front];
                    if *d >= head_size {
                        *d -= head_size;
                        let sub = &mut self.subs[front];
                        let qp = sub.pop_front().expect("non-empty");
                        if sub.is_empty() {
                            self.deficit[front] = 0;
                            self.rr.pop_front();
                        }
                        break qp;
                    }
                    // Grant a quantum and move to the next subqueue
                    // (rotating a single-entry ring is the identity —
                    // skip the call on the common one-feeder port).
                    *d += quantum;
                    if self.rr.len() > 1 {
                        self.rr.rotate_left(1);
                    }
                }
            }
        };
        self.bytes -= qp.pkt.size;
        self.len -= 1;
        self.by_ingress[qp.ingress.0 as usize] -= qp.pkt.size.get();
        Some(qp)
    }

    /// Bytes queued here that arrived via `ingress` (the deadlock
    /// analyzer's inner loop): O(1) from the maintained counter.
    pub fn bytes_from_ingress(&self, ingress: PortNo) -> Bytes {
        Bytes::new(
            self.by_ingress
                .get(ingress.0 as usize)
                .copied()
                .unwrap_or(0),
        )
    }

    /// Iterate over all queued packets (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &QPkt> {
        self.subs.iter().flatten().chain(self.fifo.iter())
    }

    /// Remove and return every queued packet that arrived via `ingress`
    /// (used by reactive deadlock recovery to force-drain a frozen queue).
    pub fn drain_from_ingress(&mut self, ingress: PortNo) -> Vec<QPkt> {
        let mut out = Vec::new();
        if let Some(sub) = self.subs.get_mut(ingress.0 as usize) {
            out.extend(sub.drain(..));
            self.rr.retain(|&p| p != ingress);
            self.deficit[ingress.0 as usize] = 0;
        }
        let mut keep = VecDeque::with_capacity(self.fifo.len());
        for qp in self.fifo.drain(..) {
            if qp.ingress == ingress {
                out.push(qp);
            } else {
                keep.push_back(qp);
            }
        }
        self.fifo = keep;
        for qp in &out {
            self.bytes -= qp.pkt.size;
            self.len -= 1;
            self.by_ingress[qp.ingress.0 as usize] -= qp.pkt.size.get();
        }
        out
    }

    /// Remove and return every queued packet (link failure / reboot
    /// clearing — nothing queued at a dead port can ever transmit).
    pub fn drain_all(&mut self) -> Vec<QPkt> {
        let mut out: Vec<QPkt> = self.subs.iter_mut().flat_map(|q| q.drain(..)).collect();
        self.rr.clear();
        self.deficit.fill(0);
        out.extend(self.fifo.drain(..));
        self.by_ingress.fill(0);
        self.bytes = Bytes::ZERO;
        self.len = 0;
        out
    }
}

/// Pause state of a transmitter (egress, priority) as set by received PFC
/// frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxPause {
    /// Free to send.
    #[default]
    Open,
    /// Paused until an explicit RESUME (XON/XOFF mode).
    UntilResume,
    /// Paused until the quanta timer expires (quanta mode).
    Until(SimTime),
}

impl TxPause {
    /// Whether transmission of this class is blocked at `now`.
    pub fn is_paused(self, now: SimTime) -> bool {
        match self {
            TxPause::Open => false,
            TxPause::UntilResume => true,
            TxPause::Until(t) => now < t,
        }
    }
}

/// What is currently on the wire out of an egress port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum InFlight {
    /// A data packet, remembering its accounting ingress.
    Data(QPkt),
    /// A PFC control frame.
    Pfc(PfcFrame),
}

/// An egress port's per-class data queues, each allocated when its class
/// first queues a packet: an unused class costs one word and reads as an
/// empty queue without allocating. Its document is the dense one, one
/// [`EgressQueue`] per class; an unallocated class writes the document of
/// `EgressQueue::default()`, and that document decodes to an unallocated
/// class.
#[derive(Debug, Clone, Default)]
pub struct ClassQueues([Option<Box<EgressQueue>>; Priority::COUNT]);

/// What an unallocated class reads as.
static UNUSED: EgressQueue = EgressQueue {
    subs: Vec::new(),
    rr: VecDeque::new(),
    deficit: Vec::new(),
    fifo: VecDeque::new(),
    by_ingress: Vec::new(),
    bytes: Bytes::ZERO,
    len: 0,
};

impl ClassQueues {
    /// Class `c`'s queue, allocated if it is not yet (to enqueue).
    pub fn class_mut(&mut self, c: usize) -> &mut EgressQueue {
        self.0[c].get_or_insert_with(Box::default)
    }

    /// Class `c`'s queue, if it was ever allocated.
    pub fn get_mut(&mut self, c: usize) -> Option<&mut EgressQueue> {
        self.0[c].as_deref_mut()
    }

    /// Every class's queue, in class order.
    pub fn iter(&self) -> impl Iterator<Item = &EgressQueue> {
        (0..Priority::COUNT).map(|c| &self[c])
    }

    /// The allocated classes' queues, in class order: an unallocated one
    /// holds nothing to change.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut EgressQueue> {
        self.0.iter_mut().flatten().map(|q| &mut **q)
    }
}

impl std::ops::Index<usize> for ClassQueues {
    type Output = EgressQueue;

    fn index(&self, c: usize) -> &EgressQueue {
        self.0[c].as_deref().unwrap_or(&UNUSED)
    }
}

impl Serialize for ClassQueues {
    fn emit<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.array(Priority::COUNT);
        for q in self.iter() {
            q.emit(sink);
        }
    }
}

impl Deserialize for ClassQueues {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let queues: Vec<EgressQueue> = Vec::from_value(v)?;
        if queues.len() != Priority::COUNT {
            return Err(serde::de::Error::custom(format!(
                "{} classes, not {}",
                queues.len(),
                Priority::COUNT
            )));
        }
        let mut out = ClassQueues::default();
        for (slot, q) in out.0.iter_mut().zip(queues) {
            if !q.is_unused() {
                *slot = Some(Box::new(q));
            }
        }
        Ok(out)
    }
}

/// Egress side of one switch port.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Egress {
    /// Per-priority data queues.
    pub queues: ClassQueues,
    /// Control frames waiting to go out (sent ahead of data).
    pub ctrl: VecDeque<PfcFrame>,
    /// Round-robin cursor for [`ClassScheduling::Wrr`].
    pub wrr_cursor: u8,
    /// Frame currently serializing, if any.
    pub in_flight: Option<InFlight>,
    /// Phantom-queue state per priority: (virtual bytes, last update).
    pub phantom: [(Bytes, SimTime); Priority::COUNT],
}

impl Egress {
    /// True iff the transmitter is serializing a frame.
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Total data bytes queued across priorities.
    pub fn queued_bytes(&self) -> Bytes {
        self.queues.iter().map(|q| q.bytes()).sum()
    }

    /// Highest-priority non-empty, non-paused queue index at `now`.
    /// `paused` is this port's `Priority::COUNT`-long slice of the
    /// simulator's dense pause-state array (see `Datapath::tx_pause`).
    pub fn next_eligible(&self, now: SimTime, paused: &[TxPause]) -> Option<usize> {
        (0..Priority::COUNT)
            .rev()
            .find(|&p| !self.queues[p].is_empty() && !paused[p].is_paused(now))
    }

    /// Pick the class to serve next under the configured inter-class
    /// policy, advancing the WRR cursor on a round-robin pick.
    pub fn pick_class(
        &mut self,
        now: SimTime,
        policy: ClassScheduling,
        paused: &[TxPause],
    ) -> Option<usize> {
        match policy {
            ClassScheduling::Strict => self.next_eligible(now, paused),
            ClassScheduling::Wrr => {
                for k in 0..Priority::COUNT {
                    let c = (self.wrr_cursor as usize + k) % Priority::COUNT;
                    if !self.queues[c].is_empty() && !paused[c].is_paused(now) {
                        self.wrr_cursor = ((c + 1) % Priority::COUNT) as u8;
                        return Some(c);
                    }
                }
                None
            }
        }
    }
}

/// Ingress side of one switch port: PFC accounting and optional shaping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ingress {
    /// Buffered bytes per priority attributed to this port.
    pub count: [Bytes; Priority::COUNT],
    /// Whether we have paused the upstream sender, per priority.
    pub pause_sent: [bool; Priority::COUNT],
    /// Optional ingress rate limiter.
    pub shaper: Option<TokenBucket>,
    /// Packets held by the shaper (still counted in `count`).
    pub shaper_q: VecDeque<Packet>,
    /// Whether a ShaperRelease event is pending.
    pub shaper_scheduled: bool,
    /// Per-port XOFF override (threshold tiering); `None` = switch default.
    pub xoff_override: Option<Bytes>,
    /// Per-port XON override.
    pub xon_override: Option<Bytes>,
    /// Per-flow byte tracking (only when enabled in config).
    pub per_flow: FlowLedger,
}

impl Ingress {
    /// Total buffered bytes across priorities.
    pub fn total(&self) -> Bytes {
        self.count.iter().copied().sum()
    }
}

/// Per-flow buffered-byte ledger, keyed by `(priority, flow)`. A sorted
/// vec with the same key order as the `BTreeMap` it replaced: an ingress
/// port sees a handful of flows, so the per-packet add/sub on the
/// datapath wants contiguous probes, not tree nodes. Entries that drain
/// to zero are kept (as the map kept them) so sampled occupancy series
/// are unchanged.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowLedger {
    pub(crate) entries: Vec<((u8, FlowId), Bytes)>,
}

impl FlowLedger {
    #[inline]
    fn pos(&self, key: (u8, FlowId)) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |e| e.0)
    }

    /// Add `b` bytes to `(prio, flow)`, starting from zero if absent.
    #[inline]
    pub fn add(&mut self, prio: u8, flow: FlowId, b: Bytes) {
        match self.pos((prio, flow)) {
            Ok(i) => self.entries[i].1 += b,
            Err(i) => self.entries.insert(i, ((prio, flow), b)),
        }
    }

    /// Subtract `b` bytes from `(prio, flow)`. Panics if the flow was
    /// never added — the ledger must balance.
    #[inline]
    pub fn sub(&mut self, prio: u8, flow: FlowId, b: Bytes) {
        let i = self.pos((prio, flow)).expect("tracked flow has bytes");
        self.entries[i].1 -= b;
    }

    /// Key-sorted iteration, `BTreeMap`-compatible item shape.
    pub fn iter(&self) -> impl Iterator<Item = (&(u8, FlowId), &Bytes)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Drop every entry (capacity retained).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A switch: one ingress + egress record per port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Switch {
    /// This switch's node id.
    pub node: NodeId,
    /// Per-port ingress state.
    pub ingress: Vec<Ingress>,
    /// Per-port egress state.
    pub egress: Vec<Egress>,
    /// Total buffered bytes (shared buffer usage).
    pub buffered: Bytes,
}

impl Switch {
    /// A switch with `n_ports` ports.
    pub fn new(node: NodeId, n_ports: usize) -> Self {
        Switch {
            node,
            ingress: (0..n_ports).map(|_| Ingress::default()).collect(),
            egress: (0..n_ports).map(|_| Egress::default()).collect(),
            buffered: Bytes::ZERO,
        }
    }

    /// Bytes accounted to ingress `p`, priority `c`, that are queued toward
    /// egress `e` (used by the deadlock fixpoint analyzer).
    pub fn stuck_bytes(&self, p: PortNo, c: Priority, e: usize) -> Bytes {
        self.egress[e].queues[c.index()].bytes_from_ingress(p)
    }

    /// Why a restored switch `node` with `n_ports` ports is not a state
    /// the datapath can produce under `arb`, if it is not: every queue's
    /// counters and subqueues agree with its packets, and every byte a
    /// counter holds — per ingress and priority, in total, and per flow
    /// when `per_flow` ledgers are kept — is a packet queued,
    /// serializing or held by a shaper here.
    pub(crate) fn check(
        &self,
        node: NodeId,
        n_ports: usize,
        arb: Arbitration,
        per_flow: bool,
    ) -> Result<(), String> {
        if self.node != node || self.ingress.len() != n_ports || self.egress.len() != n_ports {
            return Err(format!(
                "switch {node}: stored as {} with {}/{} ports, topology has {n_ports}",
                self.node,
                self.ingress.len(),
                self.egress.len()
            ));
        }
        // Held bytes per (ingress, priority) and per (ingress, priority, flow).
        let mut held = vec![[0u128; Priority::COUNT]; n_ports];
        let mut flows: Vec<Vec<((u8, FlowId), u128)>> = vec![Vec::new(); n_ports];
        let mut hold = |ingress: PortNo, pkt: &Packet| -> Result<(), String> {
            let (p, c) = (ingress.0 as usize, pkt.priority.index());
            if p >= n_ports || c >= Priority::COUNT {
                return Err(format!(
                    "switch {node}: packet held for port {p} priority {c}"
                ));
            }
            held[p][c] += u128::from(pkt.size.get());
            let key = (pkt.priority.0, pkt.flow);
            match flows[p].iter_mut().find(|e| e.0 == key) {
                Some(e) => e.1 += u128::from(pkt.size.get()),
                None => flows[p].push((key, u128::from(pkt.size.get()))),
            }
            Ok(())
        };
        for (e, eg) in self.egress.iter().enumerate() {
            for (c, q) in eg.queues.iter().enumerate() {
                q.check(n_ports, arb)
                    .map_err(|why| format!("switch {node} egress {e} class {c}: {why}"))?;
                for qp in q.iter() {
                    hold(qp.ingress, &qp.pkt)?;
                }
            }
            if let Some(InFlight::Data(qp)) = &eg.in_flight {
                hold(qp.ingress, &qp.pkt)?;
            }
        }
        for (p, ing) in self.ingress.iter().enumerate() {
            for pkt in &ing.shaper_q {
                hold(PortNo(p as u16), pkt)?;
            }
        }
        let mut total = 0u128;
        for (p, ing) in self.ingress.iter().enumerate() {
            for c in 0..Priority::COUNT {
                if u128::from(ing.count[c].get()) != held[p][c] {
                    return Err(format!(
                        "switch {node} ingress {p} class {c}: counts {} but holds {} bytes",
                        ing.count[c].get(),
                        held[p][c]
                    ));
                }
                total += held[p][c];
            }
            if per_flow {
                ing.per_flow
                    .check(&flows[p])
                    .map_err(|why| format!("switch {node} ingress {p}: {why}"))?;
            }
        }
        if u128::from(self.buffered.get()) != total {
            return Err(format!(
                "switch {node}: buffers {} but holds {total} bytes",
                self.buffered.get()
            ));
        }
        Ok(())
    }
}

impl EgressQueue {
    /// Why this queue is not one `push`/`pop` under `arb` can leave with
    /// `n_ports` ingress ports, if it is not.
    fn check(&self, n_ports: usize, arb: Arbitration) -> Result<(), String> {
        let (mut len, mut bytes) = (0usize, 0u128);
        let mut by_ingress = vec![0u128; n_ports];
        for qp in self.iter() {
            let p = qp.ingress.0 as usize;
            if p >= n_ports {
                return Err(format!("a packet from ingress {p}"));
            }
            len += 1;
            bytes += u128::from(qp.pkt.size.get());
            by_ingress[p] += u128::from(qp.pkt.size.get());
        }
        let counted = (0..n_ports).all(|p| {
            let c = self.by_ingress.get(p).copied().unwrap_or(0);
            u128::from(c) == by_ingress[p] && (by_ingress[p] == 0 || p < self.by_ingress.len())
        });
        if len != self.len || bytes != u128::from(self.bytes.get()) || !counted {
            return Err("counters disagree with the queued packets".into());
        }
        let subs_used = self.subs.iter().any(|s| !s.is_empty()) || !self.rr.is_empty();
        match arb {
            Arbitration::Fifo if subs_used => Err("DRR subqueues under FIFO".into()),
            Arbitration::Drr if !self.fifo.is_empty() => Err("a FIFO queue under DRR".into()),
            Arbitration::Fifo => Ok(()),
            Arbitration::Drr => {
                // `rr` lists each non-empty subqueue once; a subqueue holds
                // only its own ingress; an idle one has no deficit.
                let mut in_rr = vec![false; self.subs.len()];
                for &p in &self.rr {
                    let i = p.0 as usize;
                    if i >= self.subs.len() || self.subs[i].is_empty() || in_rr[i] {
                        return Err(format!("round-robin entry {i}"));
                    }
                    in_rr[i] = true;
                }
                for (i, sub) in self.subs.iter().enumerate() {
                    let deficit = self.deficit.get(i).copied();
                    if in_rr[i] == sub.is_empty()
                        || sub.iter().any(|qp| qp.ingress.0 as usize != i)
                        || deficit.is_none()
                        || (sub.is_empty() && deficit != Some(0))
                    {
                        return Err(format!("subqueue {i}"));
                    }
                }
                Ok(())
            }
        }
    }
}

impl FlowLedger {
    /// Why this ledger does not hold exactly `held` bytes per `(priority,
    /// flow)`, if it does not: entries strictly sorted, each held flow's
    /// entry equal to its bytes, and every other entry drained to zero.
    fn check(&self, held: &[((u8, FlowId), u128)]) -> Result<(), String> {
        if self.entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("per-flow ledger out of order".into());
        }
        for &(key, bytes) in held {
            let have = self
                .pos(key)
                .map_or(0, |i| u128::from(self.entries[i].1.get()));
            if have != bytes {
                return Err(format!("flow {} ledger {have} but holds {bytes}", key.1));
            }
        }
        let stray =
            (self.entries.iter()).any(|(key, b)| !b.is_zero() && !held.iter().any(|h| h.0 == *key));
        if stray {
            return Err("per-flow ledger holds bytes no packet carries".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_simcore::time::SimTime;

    fn qp(ingress: u16, size: u64, id: u64) -> QPkt {
        QPkt {
            pkt: Packet {
                id,
                flow: FlowId(ingress as u32),
                src: NodeId(0),
                dst: NodeId(1),
                size: Bytes::new(size),
                ttl: 16,
                priority: Priority::DEFAULT,
                seq: id,
                injected_at: SimTime::ZERO,
                ecn_marked: false,
            },
            ingress: PortNo(ingress),
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = EgressQueue::default();
        for i in 0..5 {
            q.push(qp(i % 2, 100, i as u64), Arbitration::Fifo);
        }
        for i in 0..5 {
            assert_eq!(q.pop(Arbitration::Fifo, 1000).unwrap().pkt.id, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drr_alternates_between_backlogged_ingresses() {
        let mut q = EgressQueue::default();
        // 6 packets from ingress 0 enqueued first, then 6 from ingress 1.
        for i in 0..6 {
            q.push(qp(0, 1000, i), Arbitration::Drr);
        }
        for i in 6..12 {
            q.push(qp(1, 1000, i), Arbitration::Drr);
        }
        let mut served = Vec::new();
        while let Some(p) = q.pop(Arbitration::Drr, 1000) {
            served.push(p.ingress.0);
        }
        assert_eq!(served.len(), 12);
        // Equal-size packets with quantum = size: perfect alternation after
        // the first service decision.
        let zeros = served.iter().filter(|&&p| p == 0).count();
        assert_eq!(zeros, 6);
        // No run of 3+ from the same ingress while both are backlogged.
        for w in served[..10].windows(3) {
            assert!(!(w[0] == w[1] && w[1] == w[2]), "unfair run: {served:?}");
        }
    }

    #[test]
    fn drr_is_work_conserving_when_one_ingress_empty() {
        let mut q = EgressQueue::default();
        for i in 0..3 {
            q.push(qp(0, 1000, i), Arbitration::Drr);
        }
        for i in 0..3 {
            assert_eq!(q.pop(Arbitration::Drr, 1000).unwrap().pkt.id, i);
        }
        assert!(q.pop(Arbitration::Drr, 1000).is_none());
    }

    #[test]
    fn drr_byte_fairness_with_unequal_sizes() {
        let mut q = EgressQueue::default();
        // Ingress 0 sends 500-byte packets, ingress 1 sends 1000-byte ones.
        for i in 0..20 {
            q.push(qp(0, 500, i), Arbitration::Drr);
        }
        for i in 20..30 {
            q.push(qp(1, 1000, i), Arbitration::Drr);
        }
        // Serve 12 KB worth; byte share should be ~50/50, so ~12 small and
        // ~6 big packets.
        let mut bytes = [0u64; 2];
        let mut served_bytes = 0;
        while served_bytes < 12_000 {
            let p = q.pop(Arbitration::Drr, 1000).unwrap();
            bytes[p.ingress.0 as usize] += p.pkt.size.get();
            served_bytes += p.pkt.size.get();
        }
        let diff = bytes[0].abs_diff(bytes[1]);
        assert!(diff <= 2000, "byte shares {bytes:?} differ by {diff}");
    }

    #[test]
    fn bytes_from_ingress_accounting() {
        let mut q = EgressQueue::default();
        q.push(qp(0, 300, 0), Arbitration::Drr);
        q.push(qp(1, 500, 1), Arbitration::Drr);
        q.push(qp(0, 200, 2), Arbitration::Drr);
        assert_eq!(q.bytes_from_ingress(PortNo(0)), Bytes::new(500));
        assert_eq!(q.bytes_from_ingress(PortNo(1)), Bytes::new(500));
        assert_eq!(q.bytes_from_ingress(PortNo(9)), Bytes::ZERO);
        assert_eq!(q.bytes(), Bytes::new(1000));
        assert_eq!(q.iter().count(), 3);
    }

    #[test]
    fn tx_pause_states() {
        let now = SimTime::from_us(10);
        assert!(!TxPause::Open.is_paused(now));
        assert!(TxPause::UntilResume.is_paused(now));
        assert!(TxPause::Until(SimTime::from_us(11)).is_paused(now));
        assert!(!TxPause::Until(SimTime::from_us(10)).is_paused(now));
    }

    #[test]
    fn egress_strict_priority_and_pause() {
        let mut e = Egress::default();
        let now = SimTime::ZERO;
        let mut low = qp(0, 100, 0);
        low.pkt.priority = Priority::new(1);
        let mut high = qp(0, 100, 1);
        high.pkt.priority = Priority::new(5);
        e.queues.class_mut(1).push(low, Arbitration::Drr);
        e.queues.class_mut(5).push(high, Arbitration::Drr);
        let mut paused = [TxPause::Open; Priority::COUNT];
        assert_eq!(e.next_eligible(now, &paused), Some(5));
        paused[5] = TxPause::UntilResume;
        assert_eq!(e.next_eligible(now, &paused), Some(1));
        paused[1] = TxPause::UntilResume;
        assert_eq!(e.next_eligible(now, &paused), None);
        assert_eq!(e.queued_bytes(), Bytes::new(200));
    }

    #[test]
    fn a_class_is_allocated_by_its_first_packet_only() {
        let mut e = Egress::default();
        assert!(e.queues.iter().all(EgressQueue::is_unused));
        assert_eq!(e.queues.iter().count(), Priority::COUNT);
        assert!(e.queues[3].is_empty() && e.queues.get_mut(3).is_none());
        e.queues.class_mut(3).push(qp(1, 100, 0), Arbitration::Drr);
        let allocated = |e: &mut Egress| {
            (0..Priority::COUNT)
                .filter(|&c| e.queues.get_mut(c).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(allocated(&mut e), [3]);
        assert_eq!(e.queued_bytes(), Bytes::new(100));
        // A walk over every queue, as link down and reboot take, drains
        // the allocated class and allocates no other.
        let drained: Vec<QPkt> = e.queues.iter_mut().flat_map(|q| q.drain_all()).collect();
        assert_eq!(drained.len(), 1);
        assert_eq!(allocated(&mut e), [3]);
        assert!(e.queues[3].is_empty() && !e.queues[3].is_unused());
    }

    #[test]
    fn class_queues_write_and_read_the_dense_document() {
        use pfcsim_simcore::snap::{decode_value, encode_value};
        fn snap(v: &impl Serialize) -> Vec<u8> {
            let mut out = Vec::new();
            encode_value(v, &mut out);
            out
        }
        let mut queues = ClassQueues::default();
        queues.class_mut(2).push(qp(0, 300, 0), Arbitration::Drr);
        queues.class_mut(5).push(qp(1, 200, 1), Arbitration::Fifo);
        queues.class_mut(5).pop(Arbitration::Fifo, 1500);
        let dense: Vec<EgressQueue> = queues.iter().cloned().collect();
        let bytes = snap(&queues);
        assert_eq!(bytes, snap(&dense));
        let mut pos = 0;
        let doc = decode_value(&bytes, &mut pos).expect("a document");
        let mut back = ClassQueues::from_value(&doc).expect("decodes");
        assert_eq!(snap(&back), bytes);
        // Class 5 has drained but keeps its ingress counters, so it is
        // not the unused document and stays allocated.
        let allocated: Vec<usize> = (0..Priority::COUNT)
            .filter(|&c| back.get_mut(c).is_some())
            .collect();
        assert_eq!(allocated, [2, 5]);
        let short = serde::value::Value::Array(doc.as_array().expect("array")[1..].to_vec());
        assert!(ClassQueues::from_value(&short).is_err());
    }

    #[test]
    fn switch_stuck_bytes() {
        let mut sw = Switch::new(NodeId(0), 3);
        sw.egress[2]
            .queues
            .class_mut(Priority::DEFAULT.index())
            .push(qp(0, 700, 0), Arbitration::Drr);
        sw.egress[2]
            .queues
            .class_mut(Priority::DEFAULT.index())
            .push(qp(1, 300, 1), Arbitration::Drr);
        assert_eq!(
            sw.stuck_bytes(PortNo(0), Priority::DEFAULT, 2),
            Bytes::new(700)
        );
        assert_eq!(
            sw.stuck_bytes(PortNo(1), Priority::DEFAULT, 2),
            Bytes::new(300)
        );
        assert_eq!(sw.stuck_bytes(PortNo(0), Priority::DEFAULT, 1), Bytes::ZERO);
    }
}

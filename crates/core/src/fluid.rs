//! A fluid (flow-level) model of PFC networks — the analysis tool the
//! paper names as future work ("we are currently working on analysis
//! tools, e.g., a fluid model that can describe PFC behavior", §3.3).
//!
//! The model integrates per-queue fluid levels in discrete time: flows
//! stream along their paths, each egress channel's capacity is divided
//! max–min between the ingress ports contending for it, and PFC pause
//! toggles on XOFF/XON level crossings of the downstream ingress queue.
//!
//! Its purpose here is **calibrated failure**: the fluid model accurately
//! reproduces the stable-state throughputs of the paper's scenarios
//! (B/2 each in Figs. 3–4) while predicting *no fabric pauses and no
//! deadlock for either* — making precise the paper's claim that
//! "flow-level stable state analysis cannot capture such behavior" and
//! that deadlock lives strictly at the packet level.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, NodeId, PortNo};
use pfcsim_topo::routing::path_hops;

/// One fluid flow: a demand streaming along a fixed path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidFlow {
    /// Identifier.
    pub id: FlowId,
    /// Offered rate in bits/s; `None` = infinite demand (always backlogged
    /// at the source).
    pub demand: Option<BitRate>,
    /// Node path, host → switches… → host.
    pub path: Vec<NodeId>,
}

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidConfig {
    /// Integration step (fluid time constant; 100 ns default).
    pub dt_ns: u64,
    /// PFC XOFF level (bytes).
    pub xoff: Bytes,
    /// PFC XON level (bytes).
    pub xon: Bytes,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            dt_ns: 100,
            xoff: Bytes::from_kb(40),
            xon: Bytes::from_kb(20),
        }
    }
}

/// A directed channel in the fluid network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct Chan {
    from: NodeId,
    to: NodeId,
}

/// Results of a fluid run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluidReport {
    /// Average delivered rate per flow (bits/s) over the run.
    pub throughput: BTreeMap<FlowId, f64>,
    /// Fraction of steps each fabric (switch→switch) channel spent paused.
    pub pause_fraction: BTreeMap<(NodeId, NodeId), f64>,
    /// Fraction of steps each host uplink spent paused.
    pub host_pause_fraction: BTreeMap<NodeId, f64>,
    /// Whether the final state is a fluid deadlock: a cycle of paused
    /// fabric channels whose downstream queues all hold ≥ XON bytes.
    pub deadlock: bool,
    /// Final total buffered bytes across all switch queues.
    pub final_buffered: f64,
}

/// The fluid simulator: the flow set compiled once into a dense plan that
/// [`FluidNetwork::run`] steps over flat arrays.
pub struct FluidNetwork {
    topo: Topology,
    flows: Vec<FluidFlow>,
    cfg: FluidConfig,
    /// Channels the flows use, in `Chan` order; a channel's id is its
    /// index here.
    chans: Vec<Chan>,
    /// Per channel id, capacity in bytes/s.
    cap: Vec<f64>,
    /// Flow `f`'s `(flow, hop)` slots are `first[f]..first[f + 1]`. Slot
    /// `first[f] + k` also holds the level of the flow's `k`-th queue, the
    /// one hop `k` feeds.
    first: Vec<usize>,
    /// Per channel id, its ingress groups in key order (the host side,
    /// then the sender's ingress ports ascending), members in slot order.
    groups: Vec<Vec<Vec<usize>>>,
    /// Every flow's queues in `(flow, k)` order as (level slot, queue id);
    /// queue ids number the distinct `(switch, ingress port)` pairs in
    /// order.
    queue_slots: Vec<(usize, usize)>,
    /// Per queue id, the upstream channel its PFC pauses.
    queue_chan: Vec<usize>,
}

/// Reusable index buffers of [`waterfill_into`].
#[derive(Default)]
struct WaterfillScratch {
    active: Vec<usize>,
    satisfied: Vec<usize>,
}

impl FluidNetwork {
    /// Build the model; paths are validated against the topology.
    pub fn new(topo: &Topology, flows: Vec<FluidFlow>, cfg: FluidConfig) -> Self {
        assert!(cfg.dt_ns > 0, "dt must be positive");
        assert!(cfg.xon <= cfg.xoff, "xon must not exceed xoff");
        let mut first = vec![0];
        let mut by_chan: BTreeMap<Chan, BTreeMap<i64, Vec<usize>>> = BTreeMap::new();
        let mut queue_keys: Vec<(usize, (NodeId, PortNo))> = Vec::new();
        for f in &flows {
            assert!(f.path.len() >= 2, "flow path too short");
            assert_eq!(
                topo.node(f.path[0]).kind,
                NodeKind::Host,
                "flow must start at a host"
            );
            let base = *first.last().expect("starts at 0");
            // Per-hop per-ingress fairness: a hop contends in the group of
            // the ingress port its bytes queue at (-1 on the source side).
            let mut key = -1;
            for (hop, (from, out)) in path_hops(topo, &f.path).enumerate() {
                let c = Chan { from, to: out.peer };
                by_chan
                    .entry(c)
                    .or_default()
                    .entry(key)
                    .or_default()
                    .push(base + hop);
                if topo.node(out.peer).kind == NodeKind::Switch {
                    queue_keys.push((base + hop, (out.peer, out.peer_port)));
                    key = out.peer_port.0 as i64;
                } else {
                    assert_eq!(hop + 2, f.path.len(), "only a path's ends may be hosts");
                }
            }
            first.push(base + f.path.len() - 1);
        }
        let chans: Vec<Chan> = by_chan.keys().copied().collect();
        let chan_id = |c: &Chan| chans.binary_search(c).expect("a flow's channel");
        let cap = chans
            .iter()
            .map(|c| {
                let link = topo.port_towards(c.from, c.to).expect("validated").link;
                topo.link(link).rate.bps() as f64 / 8.0
            })
            .collect();
        let queues: BTreeSet<(NodeId, PortNo)> = queue_keys.iter().map(|&(_, q)| q).collect();
        let queues: Vec<(NodeId, PortNo)> = queues.into_iter().collect();
        let queue_chan = queues
            .iter()
            .map(|&(node, port)| {
                chan_id(&Chan {
                    from: topo.ports(node)[port.0 as usize].peer,
                    to: node,
                })
            })
            .collect();
        let queue_slots = queue_keys
            .iter()
            .map(|&(slot, q)| (slot, queues.binary_search(&q).expect("collected above")))
            .collect();
        FluidNetwork {
            topo: topo.clone(),
            cfg,
            cap,
            first,
            groups: by_chan
                .into_values()
                .map(|by_key| by_key.into_values().collect())
                .collect(),
            queue_slots,
            queue_chan,
            chans,
            flows,
        }
    }

    /// Integrate `steps` steps and report. Zero steps report zero
    /// throughput, no pauses and nothing buffered.
    ///
    /// A step is a function of the state it carries — queue levels, host
    /// backlogs, pause bits — alone. Once that state repeats bit for bit
    /// with period `p`, every later step repeats one already taken, so
    /// `run` records one period's deliveries and replays them for every
    /// whole period left, in the same order (the sums are bit-identical),
    /// and steps only the remainder.
    pub fn run(&self, steps: usize) -> FluidReport {
        self.integrate(steps, true)
    }

    /// [`FluidNetwork::run`], stepping every step when `fast_forward` is
    /// off: the reference the fast-forward is held to.
    fn integrate(&self, steps: usize, fast_forward: bool) -> FluidReport {
        if steps == 0 {
            return FluidReport {
                throughput: self.flows.iter().map(|f| (f.id, 0.0)).collect(),
                pause_fraction: BTreeMap::new(),
                host_pause_fraction: BTreeMap::new(),
                deadlock: false,
                final_buffered: 0.0,
            };
        }
        let dt = self.cfg.dt_ns as f64 * 1e-9;
        let (nf, ns) = (self.flows.len(), self.first[self.flows.len()]);
        let mut st = Carried {
            levels: vec![0.0; ns],
            host_backlog: vec![0.0; nf],
            paused: vec![false; self.chans.len()],
        };
        let mut sc = StepScratch::new(ns, self.queue_chan.len());
        // Bytes each flow delivered in the last step, and in total.
        let mut arrived = vec![0.0f64; nf];
        let mut delivered = vec![0.0f64; nf];
        let mut paused_steps = vec![0u64; self.chans.len()];
        // Everything the fast-forward needs, allocated here so no step
        // allocates: the recurrence finder's saved state, one period's
        // deliveries, and the pause counts when that period began.
        let mut phase = if fast_forward {
            Phase::Search(Recurrence::new(&st))
        } else {
            Phase::Done
        };
        let mut period_arrived = Vec::with_capacity(steps.min(MAX_PERIOD) * nf);
        let mut period_mark = paused_steps.clone();

        let mut n = 0;
        while n < steps {
            self.step(&mut st, &mut sc, &mut arrived, dt);
            for (d, &a) in delivered.iter_mut().zip(&arrived) {
                *d += a;
            }
            for (c, &p) in paused_steps.iter_mut().zip(&st.paused) {
                *c += p as u64;
            }
            n += 1;
            match &mut phase {
                Phase::Search(seen) => {
                    if let Some(period) = seen.observe(&st) {
                        period_mark.copy_from_slice(&paused_steps);
                        phase = Phase::Record {
                            period,
                            left: period,
                        };
                    }
                }
                Phase::Record { period, left } => {
                    period_arrived.extend_from_slice(&arrived);
                    *left -= 1;
                    if *left == 0 {
                        // The state is back where the recorded period
                        // began: replay it for every whole period left.
                        let period = *period;
                        let k = (steps - n) / period;
                        for _ in 0..k {
                            for r in 0..period {
                                let row = &period_arrived[r * nf..(r + 1) * nf];
                                for (d, &a) in delivered.iter_mut().zip(row) {
                                    *d += a;
                                }
                            }
                        }
                        for (c, &then) in paused_steps.iter_mut().zip(&period_mark) {
                            *c += k as u64 * (*c - then);
                        }
                        n += k * period;
                        phase = Phase::Done;
                    }
                }
                Phase::Done => {}
            }
        }
        self.report(steps, dt, &st, &delivered, &paused_steps)
    }

    /// One integration step: advance `st` by `dt` seconds and write each
    /// flow's delivered bytes to `arrived`.
    fn step(&self, st: &mut Carried, sc: &mut StepScratch, arrived: &mut [f64], dt: f64) {
        let (xoff, xon) = (self.cfg.xoff.get() as f64, self.cfg.xon.get() as f64);
        let nf = self.flows.len();
        let Carried {
            levels,
            host_backlog,
            paused,
        } = st;
        let StepScratch {
            out_rate,
            avail,
            totals,
            member_demand,
            member_slot,
            group_demand,
            group_end,
            shares,
            inner,
            waterfill,
        } = sc;

        // 1. Source arrivals into host backlogs.
        for (fi, f) in self.flows.iter().enumerate() {
            if let Some(rate) = f.demand {
                host_backlog[fi] += rate.bps() as f64 / 8.0 * dt;
            }
        }

        // 2. Compute per-channel rate allocations (bytes/s).
        //    Demand of flow f on channel c = what it could send this
        //    step: backlog-limited or upstream-limited. We relax a few
        //    sweeps so pass-through rates propagate along paths. A slot
        //    a sweep does not allocate keeps its rate: a paused channel's
        //    stay at this 0 (paused channels send nothing), a hop that
        //    ran dry keeps the previous sweep's.
        out_rate.fill(0.0);
        for _sweep in 0..4 {
            // Available bytes this step at every hop, all from the
            // previous sweep's rates; a hop with none sends nothing.
            for fi in 0..nf {
                for s in self.first[fi]..self.first[fi + 1] {
                    avail[s] = if s > self.first[fi] {
                        // Upstream queue level plus what flows in.
                        levels[s - 1] / dt + out_rate[s - 1]
                    } else if self.flows[fi].demand.is_some() {
                        host_backlog[fi] / dt
                    } else {
                        f64::INFINITY
                    };
                }
            }
            // Max-min between a channel's ingress groups, then between
            // the flows in a group.
            for (c, groups) in self.groups.iter().enumerate() {
                if paused[c] {
                    continue;
                }
                member_demand.clear();
                member_slot.clear();
                group_demand.clear();
                group_end.clear();
                for group in groups {
                    let start = member_demand.len();
                    for &s in group {
                        if avail[s] <= 0.0 {
                            continue;
                        }
                        member_demand.push(avail[s]);
                        member_slot.push(s);
                    }
                    if member_demand.len() > start {
                        group_demand.push(member_demand[start..].iter().sum::<f64>());
                        group_end.push(member_demand.len());
                    }
                }
                waterfill_into(group_demand, self.cap[c], shares, waterfill);
                let mut start = 0;
                for (&end, &share) in group_end.iter().zip(shares.iter()) {
                    waterfill_into(&member_demand[start..end], share, inner, waterfill);
                    for (&s, &rate) in member_slot[start..end].iter().zip(inner.iter()) {
                        out_rate[s] = rate;
                    }
                    start = end;
                }
            }
        }

        // 3. Integrate levels.
        for fi in 0..nf {
            let (lo, hi) = (self.first[fi], self.first[fi + 1]);
            for s in lo..hi {
                let sent = out_rate[s] * dt;
                if s > lo {
                    levels[s - 1] = (levels[s - 1] - sent).max(0.0);
                } else if self.flows[fi].demand.is_some() {
                    host_backlog[fi] = (host_backlog[fi] - sent).max(0.0);
                }
                if s == hi - 1 {
                    arrived[fi] = sent;
                } else {
                    levels[s] += sent;
                }
            }
        }

        // 4. Pause/resume on queue totals.
        totals.fill(0.0);
        for &(s, q) in &self.queue_slots {
            totals[q] += levels[s];
        }
        for (&level, &c) in totals.iter().zip(&self.queue_chan) {
            if level >= xoff {
                paused[c] = true;
            } else if level < xon {
                paused[c] = false;
            }
        }
    }

    /// The report of a run of `steps` steps that ended in `st`.
    fn report(
        &self,
        steps: usize,
        dt: f64,
        st: &Carried,
        delivered: &[f64],
        paused_steps: &[u64],
    ) -> FluidReport {
        // Final deadlock check: a cycle among paused fabric channels whose
        // downstream levels all sit at/above XON.
        let kind = |n: NodeId| self.topo.node(n).kind;
        let fabric_paused: Vec<Chan> = (self.chans.iter().zip(&st.paused))
            .filter(|&(c, &p)| {
                p && kind(c.from) == NodeKind::Switch && kind(c.to) == NodeKind::Switch
            })
            .map(|(&c, _)| c)
            .collect();
        let deadlock = has_channel_cycle(&fabric_paused);

        let total_time = steps as f64 * dt;
        let mut throughput = BTreeMap::new();
        for (fi, f) in self.flows.iter().enumerate() {
            throughput.insert(f.id, delivered[fi] * 8.0 / total_time);
        }
        let mut pause_fraction = BTreeMap::new();
        let mut host_pause_fraction = BTreeMap::new();
        for (c, &n) in self.chans.iter().zip(paused_steps) {
            if n == 0 {
                continue; // never paused
            }
            let frac = n as f64 / steps as f64;
            if kind(c.from) == NodeKind::Host {
                host_pause_fraction.insert(c.from, frac);
            } else if kind(c.to) == NodeKind::Switch {
                pause_fraction.insert((c.from, c.to), frac);
            }
        }
        let final_buffered: f64 = self.queue_slots.iter().map(|&(s, _)| st.levels[s]).sum();
        FluidReport {
            throughput,
            pause_fraction,
            host_pause_fraction,
            deadlock,
            final_buffered,
        }
    }
}

/// The longest period [`FluidNetwork::run`] looks for: it bounds the
/// recurrence finder's checkpoint spacing and the recorded period.
const MAX_PERIOD: usize = 1 << 12;

/// Everything one fluid step reads of the steps before it. Levels are
/// indexed by `(flow, hop)` slot, backlogs (CBR flows only) by flow,
/// pause bits by channel.
#[derive(Clone)]
struct Carried {
    levels: Vec<f64>,
    host_backlog: Vec<f64>,
    paused: Vec<bool>,
}

impl Carried {
    /// Equal bit for bit, so every later step repeats too.
    fn same_as(&self, other: &Carried) -> bool {
        let bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        bits(&self.levels, &other.levels)
            && bits(&self.host_backlog, &other.host_backlog)
            && self.paused == other.paused
    }

    fn copy_from(&mut self, other: &Carried) {
        self.levels.copy_from_slice(&other.levels);
        self.host_backlog.copy_from_slice(&other.host_backlog);
        self.paused.copy_from_slice(&other.paused);
    }
}

/// Brent's cycle finder over the carried state: one saved state, moved to
/// the current one whenever `lam` steps reach `power`, which doubles up to
/// [`MAX_PERIOD`]. Any period up to that is found within it steps of the
/// state first entering its cycle.
struct Recurrence {
    saved: Carried,
    power: usize,
    lam: usize,
}

impl Recurrence {
    fn new(st: &Carried) -> Self {
        Recurrence {
            saved: st.clone(),
            power: 1,
            lam: 0,
        }
    }

    /// Note the state after one more step; the period, once `st` repeats.
    fn observe(&mut self, st: &Carried) -> Option<usize> {
        self.lam += 1;
        if st.same_as(&self.saved) {
            return Some(self.lam);
        }
        if self.lam == self.power {
            self.saved.copy_from(st);
            self.power = (2 * self.power).min(MAX_PERIOD);
            self.lam = 0;
        }
        None
    }
}

/// Where a run stands in looking for its period.
enum Phase {
    /// Stepping and watching for a recurrence.
    Search(Recurrence),
    /// A period was found: stepping through it once more, recording each
    /// step's deliveries, with `left` steps to go.
    Record { period: usize, left: usize },
    /// Replayed, or not fast-forwarding: stepping to the end.
    Done,
}

/// Per-step buffers of [`FluidNetwork::step`], sized so no step
/// allocates: the per-slot rates and availabilities, the per-queue
/// totals, and one channel's allocation — the sending members' demands
/// and slots, each sending group's summed demand and end in
/// `member_demand`, and the two waterfills.
struct StepScratch {
    out_rate: Vec<f64>,
    avail: Vec<f64>,
    totals: Vec<f64>,
    member_demand: Vec<f64>,
    member_slot: Vec<usize>,
    group_demand: Vec<f64>,
    group_end: Vec<usize>,
    shares: Vec<f64>,
    inner: Vec<f64>,
    waterfill: WaterfillScratch,
}

impl StepScratch {
    fn new(ns: usize, nq: usize) -> Self {
        StepScratch {
            out_rate: vec![0.0; ns],
            avail: vec![0.0; ns],
            totals: vec![0.0; nq],
            member_demand: Vec::with_capacity(ns),
            member_slot: Vec::with_capacity(ns),
            group_demand: Vec::with_capacity(ns),
            group_end: Vec::with_capacity(ns),
            shares: Vec::with_capacity(ns),
            inner: Vec::with_capacity(ns),
            waterfill: WaterfillScratch {
                active: Vec::with_capacity(ns),
                satisfied: Vec::with_capacity(ns),
            },
        }
    }
}

/// Max–min (water-filling) allocation of `capacity` to `demands`, written
/// to `alloc`.
fn waterfill_into(
    demands: &[f64],
    capacity: f64,
    alloc: &mut Vec<f64>,
    scratch: &mut WaterfillScratch,
) {
    let WaterfillScratch { active, satisfied } = scratch;
    alloc.clear();
    alloc.resize(demands.len(), 0.0);
    let mut remaining = capacity;
    active.clear();
    active.extend(0..demands.len());
    loop {
        if active.is_empty() || remaining <= 1e-9 {
            break;
        }
        let share = remaining / active.len() as f64;
        satisfied.clear();
        for &i in active.iter() {
            if demands[i] - alloc[i] <= share {
                satisfied.push(i);
            }
        }
        if satisfied.is_empty() {
            for &i in active.iter() {
                alloc[i] += share;
            }
            break;
        }
        for &i in satisfied.iter() {
            remaining -= demands[i] - alloc[i];
            alloc[i] = demands[i];
        }
        active.retain(|i| !satisfied.contains(i));
    }
}

/// Does the directed channel set contain a cycle?
fn has_channel_cycle(chans: &[Chan]) -> bool {
    use pfcsim_net::bdg::has_cycle;
    let nodes: BTreeSet<NodeId> = chans.iter().flat_map(|c| [c.from, c.to]).collect();
    let index: BTreeMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj = vec![Vec::new(); nodes.len()];
    for c in chans {
        adj[index[&c.from]].push(index[&c.to]);
    }
    has_cycle(&adj)
}

/// The map-based integrator the dense plan replaced, kept verbatim as its
/// executable spec: `dense_run_matches_reference_bit_for_bit` holds
/// [`FluidNetwork::run`] to it on every `FluidReport` bit.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use pfcsim_topo::graph::{NodeKind, Topology};
    use pfcsim_topo::ids::{NodeId, PortNo};

    use super::{has_channel_cycle, Chan, FluidConfig, FluidFlow, FluidReport};

    /// The fluid simulator.
    pub(super) struct FluidNetwork {
        topo: Topology,
        flows: Vec<FluidFlow>,
        cfg: FluidConfig,
        /// Per flow, the queue sequence: (switch, ingress port) pairs.
        queues_of: Vec<Vec<(NodeId, PortNo)>>,
        /// Per flow, the channel sequence (host uplink, fabric hops, downlink).
        chans_of: Vec<Vec<Chan>>,
    }

    impl FluidNetwork {
        /// Build the model; paths are validated against the topology.
        pub(super) fn new(topo: &Topology, flows: Vec<FluidFlow>, cfg: FluidConfig) -> Self {
            assert!(cfg.dt_ns > 0, "dt must be positive");
            assert!(cfg.xon <= cfg.xoff, "xon must not exceed xoff");
            let mut queues_of = Vec::with_capacity(flows.len());
            let mut chans_of = Vec::with_capacity(flows.len());
            for f in &flows {
                assert!(f.path.len() >= 2, "flow path too short");
                assert_eq!(
                    topo.node(f.path[0]).kind,
                    NodeKind::Host,
                    "flow must start at a host"
                );
                let mut queues = Vec::new();
                let mut chans = Vec::new();
                for w in f.path.windows(2) {
                    let port = topo
                        .port_towards(w[1], w[0])
                        .unwrap_or_else(|| panic!("{} and {} not adjacent", w[0], w[1]));
                    chans.push(Chan {
                        from: w[0],
                        to: w[1],
                    });
                    if topo.node(w[1]).kind == NodeKind::Switch {
                        queues.push((w[1], port.port));
                    }
                }
                queues_of.push(queues);
                chans_of.push(chans);
            }
            FluidNetwork {
                topo: topo.clone(),
                flows,
                cfg,
                queues_of,
                chans_of,
            }
        }

        /// Integrate `steps` steps and report.
        pub(super) fn run(&self, steps: usize) -> FluidReport {
            let dt = self.cfg.dt_ns as f64 * 1e-9;
            let nf = self.flows.len();
            // levels[f][k]: bytes of flow f in its k-th queue.
            let mut levels: Vec<Vec<f64>> = self
                .queues_of
                .iter()
                .map(|qs| vec![0.0; qs.len()])
                .collect();
            // Host backlog for CBR flows (bytes); infinite flows don't need it.
            let mut host_backlog = vec![0.0f64; nf];
            let mut paused: BTreeSet<Chan> = BTreeSet::new();
            let mut paused_steps: BTreeMap<Chan, u64> = BTreeMap::new();
            let mut delivered = vec![0.0f64; nf];

            // Map each (flow, hop) to the channel it exits through, and build
            // channel capacity lookup.
            let cap = |c: Chan| -> f64 {
                let link = self
                    .topo
                    .port_towards(c.from, c.to)
                    .expect("validated")
                    .link;
                self.topo.link(link).rate.bps() as f64
            };

            for _ in 0..steps {
                // 1. Source arrivals into host backlogs.
                for (fi, f) in self.flows.iter().enumerate() {
                    if let Some(rate) = f.demand {
                        host_backlog[fi] += rate.bps() as f64 / 8.0 * dt;
                    }
                }

                // 2. Compute per-channel rate allocations (bytes/s).
                //    Demand of flow f on channel c = what it could send this
                //    step: backlog-limited or upstream-limited. We relax a few
                //    sweeps so pass-through rates propagate along paths.
                let mut out_rate: Vec<Vec<f64>> =
                    self.chans_of.iter().map(|cs| vec![0.0; cs.len()]).collect();
                for _sweep in 0..4 {
                    // Gather demands per channel, grouped by ingress port at
                    // the sending switch (per-hop per-ingress fairness).
                    let mut groups: BTreeMap<Chan, BTreeMap<i64, Vec<(usize, usize, f64)>>> =
                        BTreeMap::new();
                    for (fi, chans) in self.chans_of.iter().enumerate() {
                        for (hop, &c) in chans.iter().enumerate() {
                            if paused.contains(&c) {
                                continue;
                            }
                            // Available bytes this step at this hop.
                            let avail = if hop == 0 {
                                match self.flows[fi].demand {
                                    None => f64::INFINITY,
                                    Some(_) => host_backlog[fi] / dt,
                                }
                            } else {
                                // Queue hop-1 level plus what flows in this step.
                                levels[fi][hop - 1] / dt + out_rate[fi][hop - 1]
                            };
                            if avail <= 0.0 {
                                continue;
                            }
                            // Group key: ingress port at the sender (or -1 for
                            // the host/source side).
                            let key = if hop == 0 {
                                -1
                            } else {
                                let (_, port) = self.queues_of[fi][hop - 1];
                                port.0 as i64
                            };
                            groups
                                .entry(c)
                                .or_default()
                                .entry(key)
                                .or_default()
                                .push((fi, hop, avail));
                        }
                    }
                    // Max-min between groups, then between flows in a group.
                    for (c, by_group) in &groups {
                        let capacity = cap(*c) / 8.0; // bytes/s
                        let shares = waterfill(
                            by_group
                                .values()
                                .map(|v| v.iter().map(|&(_, _, a)| a).sum::<f64>())
                                .collect(),
                            capacity,
                        );
                        for (gi, members) in by_group.values().enumerate() {
                            let inner =
                                waterfill(members.iter().map(|&(_, _, a)| a).collect(), shares[gi]);
                            for (mi, &(fi, hop, _)) in members.iter().enumerate() {
                                out_rate[fi][hop] = inner[mi];
                            }
                        }
                    }
                    // Paused channels send nothing.
                    for (fi, chans) in self.chans_of.iter().enumerate() {
                        for (hop, &c) in chans.iter().enumerate() {
                            if paused.contains(&c) {
                                out_rate[fi][hop] = 0.0;
                            }
                        }
                    }
                }

                // 3. Integrate levels.
                for (fi, chans) in self.chans_of.iter().enumerate() {
                    for (hop, _) in chans.iter().enumerate() {
                        let sent = out_rate[fi][hop] * dt;
                        if hop == 0 {
                            if self.flows[fi].demand.is_some() {
                                host_backlog[fi] = (host_backlog[fi] - sent).max(0.0);
                            }
                        } else {
                            levels[fi][hop - 1] = (levels[fi][hop - 1] - sent).max(0.0);
                        }
                        if hop == chans.len() - 1 {
                            delivered[fi] += sent;
                        } else {
                            levels[fi][hop] += sent;
                        }
                    }
                }

                // 4. Pause/resume on queue totals.
                let mut totals: BTreeMap<(NodeId, PortNo), f64> = BTreeMap::new();
                for (fi, qs) in self.queues_of.iter().enumerate() {
                    for (k, &(node, port)) in qs.iter().enumerate() {
                        *totals.entry((node, port)).or_insert(0.0) += levels[fi][k];
                    }
                }
                for (&(node, port), &level) in &totals {
                    let upstream = self.topo.ports(node)[port.0 as usize].peer;
                    let c = Chan {
                        from: upstream,
                        to: node,
                    };
                    if level >= self.cfg.xoff.get() as f64 {
                        paused.insert(c);
                    } else if level < self.cfg.xon.get() as f64 {
                        paused.remove(&c);
                    }
                }
                for &c in &paused {
                    *paused_steps.entry(c).or_insert(0) += 1;
                }
            }

            // Final deadlock check: a cycle among paused fabric channels whose
            // downstream levels all sit at/above XON.
            let fabric_paused: Vec<Chan> = paused
                .iter()
                .copied()
                .filter(|c| {
                    self.topo.node(c.from).kind == NodeKind::Switch
                        && self.topo.node(c.to).kind == NodeKind::Switch
                })
                .collect();
            let deadlock = has_channel_cycle(&fabric_paused);

            let total_time = steps as f64 * dt;
            let mut throughput = BTreeMap::new();
            for (fi, f) in self.flows.iter().enumerate() {
                throughput.insert(f.id, delivered[fi] * 8.0 / total_time);
            }
            let mut pause_fraction = BTreeMap::new();
            let mut host_pause_fraction = BTreeMap::new();
            for (c, n) in paused_steps {
                let frac = n as f64 / steps as f64;
                if self.topo.node(c.from).kind == NodeKind::Host {
                    host_pause_fraction.insert(c.from, frac);
                } else if self.topo.node(c.to).kind == NodeKind::Switch {
                    pause_fraction.insert((c.from, c.to), frac);
                }
            }
            let final_buffered: f64 = levels.iter().flatten().sum();
            FluidReport {
                throughput,
                pause_fraction,
                host_pause_fraction,
                deadlock,
                final_buffered,
            }
        }
    }

    /// Max–min (water-filling) allocation of `capacity` to `demands`.
    fn waterfill(demands: Vec<f64>, capacity: f64) -> Vec<f64> {
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        let mut alloc = vec![0.0; n];
        let mut remaining = capacity;
        let mut active: Vec<usize> = (0..n).collect();
        loop {
            if active.is_empty() || remaining <= 1e-9 {
                break;
            }
            let share = remaining / active.len() as f64;
            let mut satisfied = Vec::new();
            for &i in &active {
                if demands[i] - alloc[i] <= share {
                    satisfied.push(i);
                }
            }
            if satisfied.is_empty() {
                for &i in &active {
                    alloc[i] += share;
                }
                break;
            }
            for &i in &satisfied {
                remaining -= demands[i] - alloc[i];
                alloc[i] = demands[i];
            }
            active.retain(|i| !satisfied.contains(i));
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::builders::{line, ring, square, Built, LinkSpec};

    fn gbps(x: f64) -> f64 {
        x / 1e9
    }

    fn waterfill(demands: Vec<f64>, capacity: f64) -> Vec<f64> {
        let mut alloc = vec![f64::NAN; 3]; // stale contents must not leak
        waterfill_into(
            &demands,
            capacity,
            &mut alloc,
            &mut WaterfillScratch::default(),
        );
        alloc
    }

    #[test]
    fn waterfill_properties() {
        assert_eq!(waterfill(vec![], 10.0), Vec::<f64>::new());
        // Under-subscribed: everyone satisfied.
        let a = waterfill(vec![1.0, 2.0], 10.0);
        assert_eq!(a, vec![1.0, 2.0]);
        // Over-subscribed equal demands: equal split.
        let a = waterfill(vec![10.0, 10.0], 10.0);
        assert!((a[0] - 5.0).abs() < 1e-9 && (a[1] - 5.0).abs() < 1e-9);
        // Max-min: small demand satisfied, big ones split the rest.
        let a = waterfill(vec![1.0, 100.0, 100.0], 11.0);
        assert!((a[0] - 1.0).abs() < 1e-9);
        assert!((a[1] - 5.0).abs() < 1e-9);
        assert!((a[2] - 5.0).abs() < 1e-9);
        // Total never exceeds capacity.
        assert!(a.iter().sum::<f64>() <= 11.0 + 1e-9);
    }

    #[test]
    fn single_flow_reaches_line_rate() {
        let b = line(2, LinkSpec::default());
        let flow = FluidFlow {
            id: FlowId(0),
            demand: None,
            path: vec![b.hosts[0], b.switches[0], b.switches[1], b.hosts[1]],
        };
        let net = FluidNetwork::new(&b.topo, vec![flow], FluidConfig::default());
        let r = net.run(10_000); // 1 ms
        let thr = gbps(r.throughput[&FlowId(0)]);
        assert!((thr - 40.0).abs() < 1.0, "throughput {thr} Gbps");
        assert!(!r.deadlock);
    }

    #[test]
    fn cbr_flow_passes_through_at_demand() {
        let b = line(2, LinkSpec::default());
        let flow = FluidFlow {
            id: FlowId(0),
            demand: Some(BitRate::from_gbps(7)),
            path: vec![b.hosts[0], b.switches[0], b.switches[1], b.hosts[1]],
        };
        let net = FluidNetwork::new(&b.topo, vec![flow], FluidConfig::default());
        let r = net.run(10_000);
        let thr = gbps(r.throughput[&FlowId(0)]);
        assert!((thr - 7.0).abs() < 0.5, "throughput {thr} Gbps");
        assert!(r.final_buffered < 1_000.0, "no queue should build");
    }

    fn square_fluid(with_flow3: bool) -> FluidReport {
        let b = square(LinkSpec::default());
        let mut flows = square_flows(&b, None);
        flows.truncate(if with_flow3 { 3 } else { 2 });
        FluidNetwork::new(&b.topo, flows, FluidConfig::default()).run(20_000) // 2 ms
    }

    #[test]
    fn fig3_fluid_predicts_stable_state_without_fabric_pauses() {
        let r = square_fluid(false);
        // The paper's flow-level analysis: each flow gets B/2 = 20 Gbps.
        for f in [FlowId(1), FlowId(2)] {
            let thr = gbps(r.throughput[&f]);
            assert!((thr - 20.0).abs() < 1.5, "flow {f}: {thr} Gbps");
        }
        // ...and, being infinitely smooth, no fabric pause and no deadlock.
        assert!(
            r.pause_fraction.values().all(|&f| f < 0.01),
            "fluid fabric pauses: {:?}",
            r.pause_fraction
        );
        assert!(!r.deadlock);
        // Hosts DO get paused (their demand is infinite).
        assert!(!r.host_pause_fraction.is_empty());
    }

    #[test]
    fn fig4_fluid_cannot_see_the_deadlock() {
        // The punchline: the fluid model says Fig. 4 ≈ Fig. 3 (stable
        // 20 Gbps state, no deadlock) — but the packet-level simulator
        // deadlocks. Flow-level analysis is structurally blind here.
        let r = square_fluid(true);
        for f in [FlowId(1), FlowId(2), FlowId(3)] {
            let thr = gbps(r.throughput[&f]);
            assert!((thr - 20.0).abs() < 2.5, "flow {f}: {thr} Gbps");
        }
        assert!(
            !r.deadlock,
            "fluid model must NOT predict the Fig. 4 deadlock"
        );
    }

    #[test]
    fn oversubscribed_incast_paused_in_fluid() {
        // 2:1 incast: fluid model must show host pauses and fair split.
        let spec = LinkSpec::default();
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let h0 = t.add_host("h0");
        let h1 = t.add_host("h1");
        let sink = t.add_host("sink");
        t.connect(s0, s1, spec.rate, spec.delay);
        t.connect(h0, s0, spec.rate, spec.delay);
        t.connect(h1, s0, spec.rate, spec.delay);
        t.connect(sink, s1, spec.rate, spec.delay);
        let flows = vec![
            FluidFlow {
                id: FlowId(0),
                demand: None,
                path: vec![h0, s0, s1, sink],
            },
            FluidFlow {
                id: FlowId(1),
                demand: None,
                path: vec![h1, s0, s1, sink],
            },
        ];
        let r = FluidNetwork::new(&t, flows, FluidConfig::default()).run(20_000);
        for f in [FlowId(0), FlowId(1)] {
            let thr = gbps(r.throughput[&f]);
            assert!((thr - 20.0).abs() < 1.5, "flow {f}: {thr} Gbps");
        }
        assert!(!r.deadlock);
    }

    #[test]
    fn zero_steps_report_is_all_zero() {
        let b = square(LinkSpec::default());
        let flows = square_flows(&b, Some(BitRate::from_gbps(6)));
        let r = FluidNetwork::new(&b.topo, flows, FluidConfig::default()).run(0);
        assert_eq!(r.throughput.len(), 3);
        assert!(r.throughput.values().all(|&t| t.to_bits() == 0));
        assert!(r.pause_fraction.is_empty() && r.host_pause_fraction.is_empty());
        assert!(!r.deadlock);
        assert_eq!(r.final_buffered.to_bits(), 0);
    }

    /// The paper's square: flows 1 and 2 infinite, flow 3 at `cap`
    /// (`None` = infinite).
    fn square_flows(b: &Built, cap: Option<BitRate>) -> Vec<FluidFlow> {
        let (s, h) = (&b.switches, &b.hosts);
        vec![
            FluidFlow {
                id: FlowId(1),
                demand: None,
                path: vec![h[0], s[0], s[1], s[2], s[3], h[3]],
            },
            FluidFlow {
                id: FlowId(2),
                demand: None,
                path: vec![h[2], s[2], s[3], s[0], s[1], h[1]],
            },
            FluidFlow {
                id: FlowId(3),
                demand: cap,
                path: vec![h[1], s[1], s[2], h[2]],
            },
        ]
    }

    /// Flow `i` of `ring(n)`: from host `i`, `hops` switches clockwise.
    fn ring_flows(b: &Built, hops: usize, demand: Option<BitRate>) -> Vec<FluidFlow> {
        let n = b.switches.len();
        (0..n)
            .map(|i| {
                let mut path = vec![b.hosts[i]];
                path.extend((0..hops).map(|k| b.switches[(i + k) % n]));
                path.push(b.hosts[(i + hops - 1) % n]);
                FluidFlow {
                    id: FlowId(i as u32),
                    demand,
                    path,
                }
            })
            .collect()
    }

    /// A 40 G flow crossing s0→s1 into a sink it shares with a local 40 G
    /// flow: the s0→s1 ingress queue fills at 20 G, so the *fabric*
    /// channel pauses.
    fn fabric_incast() -> (Topology, Vec<FluidFlow>) {
        let spec = LinkSpec::default();
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let h0 = t.add_host("h0");
        let h1 = t.add_host("h1");
        let sink = t.add_host("sink");
        t.connect(s0, s1, spec.rate, spec.delay);
        t.connect(h0, s0, spec.rate, spec.delay);
        t.connect(h1, s1, spec.rate, spec.delay);
        t.connect(sink, s1, spec.rate, spec.delay);
        let flows = vec![
            FluidFlow {
                id: FlowId(0),
                demand: None,
                path: vec![h0, s0, s1, sink],
            },
            FluidFlow {
                id: FlowId(1),
                demand: None,
                path: vec![h1, s1, sink],
            },
        ];
        (t, flows)
    }

    /// Every field of the two reports, compared by `f64::to_bits`.
    fn assert_bit_identical(case: &str, dense: &FluidReport, spec: &FluidReport) {
        let bits = |r: &FluidReport| {
            (
                (r.throughput.iter())
                    .map(|(&f, t)| (f, t.to_bits()))
                    .collect::<Vec<_>>(),
                (r.pause_fraction.iter())
                    .map(|(&c, p)| (c, p.to_bits()))
                    .collect::<Vec<_>>(),
                (r.host_pause_fraction.iter())
                    .map(|(&h, p)| (h, p.to_bits()))
                    .collect::<Vec<_>>(),
                r.deadlock,
                r.final_buffered.to_bits(),
            )
        };
        assert_eq!(bits(dense), bits(spec), "{case}: {dense:?} vs {spec:?}");
    }

    fn run_both(
        case: &str,
        topo: &Topology,
        flows: Vec<FluidFlow>,
        cfg: FluidConfig,
        steps: usize,
    ) -> FluidReport {
        let dense = FluidNetwork::new(topo, flows.clone(), cfg).run(steps);
        let spec = reference::FluidNetwork::new(topo, flows, cfg).run(steps);
        assert_bit_identical(case, &dense, &spec);
        dense
    }

    #[test]
    fn dense_run_matches_reference_bit_for_bit() {
        let cfg = FluidConfig::default();
        let spec = LinkSpec::default();
        // E12's own inputs: Figs. 3 and 4, and the Fig. 5 cap sweep.
        let sq = square(spec);
        let fig4 = square_flows(&sq, None);
        run_both("fig3", &sq.topo, fig4[..2].to_vec(), cfg, 50_000);
        run_both("fig4", &sq.topo, fig4, cfg, 50_000);
        for g in [1, 2, 4, 6, 8, 20, 39] {
            let flows = square_flows(&sq, Some(BitRate::from_gbps(g)));
            run_both(&format!("fig5 cap {g}"), &sq.topo, flows, cfg, 30_000);
        }
        // CBR below and above line rate.
        let ln = line(2, spec);
        for g in [7, 60] {
            let flow = FluidFlow {
                id: FlowId(0),
                demand: Some(BitRate::from_gbps(g)),
                path: vec![ln.hosts[0], ln.switches[0], ln.switches[1], ln.hosts[1]],
            };
            run_both(&format!("cbr {g}"), &ln.topo, vec![flow], cfg, 10_000);
        }
        // Rings whose every link is shared, at default and tight thresholds.
        let r3 = ring(3, spec);
        run_both("ring3", &r3.topo, ring_flows(&r3, 3, None), cfg, 20_000);
        let tight = FluidConfig {
            dt_ns: 50,
            xoff: Bytes::new(3_000),
            xon: Bytes::new(1_000),
        };
        let r5 = ring(5, spec);
        run_both("tight", &r5.topo, ring_flows(&r5, 4, None), tight, 20_000);
        // None of the above pauses a fabric channel; this does.
        let (topo, flows) = fabric_incast();
        let r = run_both("fabric incast", &topo, flows, cfg, 20_000);
        assert!(!r.pause_fraction.is_empty(), "fabric pauses: {r:?}");

        // Seeded random cases: simple paths either way round a ring, mixed
        // infinite/CBR demands, random step and thresholds.
        let mut rng = pfcsim_simcore::rng::SimRng::new(0xf1d0);
        for case in 0..24 {
            let n = 2 + rng.gen_range(5) as usize;
            let b = ring(n, spec);
            let flows: Vec<FluidFlow> = (0..1 + rng.gen_range(6))
                .map(|i| {
                    let start = rng.gen_range(n as u64) as usize;
                    let hops = 1 + rng.gen_range(n as u64) as usize;
                    let back = rng.gen_bool(0.5);
                    let at = |k: usize| (start + if back { n - k % n } else { k }) % n;
                    let mut path = vec![b.hosts[start]];
                    path.extend((0..hops).map(|k| b.switches[at(k)]));
                    path.push(b.hosts[at(hops - 1)]);
                    let cbr = BitRate::from_mbps(500 + rng.gen_range(60_000));
                    FluidFlow {
                        id: FlowId(i as u32),
                        demand: rng.gen_bool(0.5).then_some(cbr),
                        path,
                    }
                })
                .collect();
            let xon = 500 + rng.gen_range(30_000);
            let cfg = FluidConfig {
                dt_ns: 20 + rng.gen_range(400),
                xoff: Bytes::new(xon + rng.gen_range(40_000)),
                xon: Bytes::new(xon),
            };
            let steps = 500 + rng.gen_range(4_000) as usize;
            run_both(&format!("random {case}"), &b.topo, flows, cfg, steps);
        }
    }

    /// The step after which `run` sees the carried state recur, and the
    /// period: [`Recurrence`] driven over the plain steps, as `run` does.
    fn recurrence(net: &FluidNetwork, max_steps: usize) -> Option<(usize, usize)> {
        let (nf, ns) = (net.flows.len(), net.first[net.flows.len()]);
        let mut st = Carried {
            levels: vec![0.0; ns],
            host_backlog: vec![0.0; nf],
            paused: vec![false; net.chans.len()],
        };
        let mut sc = StepScratch::new(ns, net.queue_chan.len());
        let mut arrived = vec![0.0; nf];
        let mut seen = Recurrence::new(&st);
        let dt = net.cfg.dt_ns as f64 * 1e-9;
        (1..=max_steps).find_map(|n| {
            net.step(&mut st, &mut sc, &mut arrived, dt);
            seen.observe(&st).map(|p| (n, p))
        })
    }

    #[test]
    fn fast_forward_equals_stepping_every_step() {
        let spec = LinkSpec::default();
        let sq = square(spec);
        let mut rng = pfcsim_simcore::rng::SimRng::new(0xfa57);
        let (mut recurred, mut flapping, mut replayed) = (0, 0, 0);
        for case in 0..40 {
            // Even cases: the paper's square, flow 3 capped or not; odd
            // cases: a ring of random simple paths. Tight thresholds on
            // some make XOFF/XON flap every few steps.
            let (topo, flows) = if case % 2 == 0 {
                let cap = rng
                    .gen_bool(0.7)
                    .then(|| BitRate::from_mbps(500 + rng.gen_range(39_000)));
                (sq.topo.clone(), square_flows(&sq, cap))
            } else {
                let n = 3 + rng.gen_range(3) as usize;
                let b = ring(n, spec);
                let flows = (0..2 + rng.gen_range(4))
                    .map(|i| {
                        let start = rng.gen_range(n as u64) as usize;
                        let hops = 2 + rng.gen_range(n as u64 - 1) as usize;
                        let mut path = vec![b.hosts[start]];
                        path.extend((0..hops).map(|k| b.switches[(start + k) % n]));
                        path.push(b.hosts[(start + hops - 1) % n]);
                        let cbr = BitRate::from_mbps(500 + rng.gen_range(10_000));
                        FluidFlow {
                            id: FlowId(i as u32),
                            demand: rng.gen_bool(0.5).then_some(cbr),
                            path,
                        }
                    })
                    .collect();
                (b.topo, flows)
            };
            let cfg = if rng.gen_bool(0.5) {
                FluidConfig::default()
            } else {
                let xon = 500 + rng.gen_range(4_000);
                FluidConfig {
                    dt_ns: 50 + rng.gen_range(200),
                    xoff: Bytes::new(xon + rng.gen_range(6_000)),
                    xon: Bytes::new(xon),
                }
            };
            let net = FluidNetwork::new(&topo, flows, cfg);
            let Some((at, p)) = recurrence(&net, 5_000) else {
                let r = net.run(3_000);
                assert_bit_identical(&format!("case {case}"), &r, &net.integrate(3_000, false));
                continue;
            };
            recurred += 1;
            replayed += usize::from(p > 1);
            // Before the recurrence is seen, on it, at the end of the
            // recorded period, one short of a period boundary with
            // nothing and with three periods to replay, and far past.
            let ends = [
                at - 1,
                at,
                at + p,
                at + 2 * p - 1,
                at + 2 * p,
                at + 5 * p - 1,
                5_000,
            ];
            for steps in ends {
                let fast = net.run(steps);
                let plain = net.integrate(steps, false);
                assert_bit_identical(&format!("case {case}, {steps} steps"), &fast, &plain);
                let flaps = |f: &f64| *f > 0.0 && *f < 1.0;
                if steps == 5_000
                    && (fast.host_pause_fraction.values().any(flaps)
                        || fast.pause_fraction.values().any(flaps))
                {
                    flapping += 1;
                }
            }
        }
        // The cases must exercise what they claim to.
        assert!(recurred >= 25, "only {recurred} of 40 cases recur");
        assert!(
            replayed >= 15,
            "only {replayed} cases have a period above 1"
        );
        assert!(flapping >= 12, "only {flapping} cases flap XOFF/XON");
    }
}

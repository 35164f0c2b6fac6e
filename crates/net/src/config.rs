//! Simulation configuration: PFC parameters, buffer policy, arbitration,
//! instrumentation.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::SimDuration;
use pfcsim_simcore::units::Bytes;

use crate::hybrid::HybridConfig;
use crate::recovery::RecoveryConfig;
use crate::telemetry::TelemetryConfig;

/// Re-export of the simulation core's event-queue backend selector so
/// callers can pin a scheduler via [`SimConfig::scheduler`] without
/// depending on `pfcsim_simcore` directly.
pub use pfcsim_simcore::event::Backend as SchedulerBackend;

/// How a PAUSE is expressed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PauseMode {
    /// Explicit XOFF at the xoff threshold, explicit XON (quanta = 0 frame)
    /// once occupancy falls below the xon threshold. The cleanest model for
    /// deadlock analysis: a deadlocked run reaches exact event-queue
    /// quiescence.
    XonXoff,
    /// Timed pauses as real 802.1Qbb hardware sends them: XOFF carries
    /// `quanta` × 512 bit-times; the pauser refreshes the pause while
    /// occupancy stays above xon, and sends quanta = 0 on drop below xon.
    Quanta {
        /// Pause length per frame, in 512-bit-time units.
        quanta: u16,
    },
}

/// PFC behaviour of one switch (or the default for all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PfcConfig {
    /// Per-(ingress port, priority) byte threshold that triggers PAUSE.
    /// The paper's simulations use a static 40 KB.
    pub xoff: Bytes,
    /// Dynamic-threshold mode (Broadcom/Cisco-style "alpha DT"): when set,
    /// the effective XOFF is `min(xoff, alpha_num/alpha_den × free shared
    /// buffer)` and XON tracks it at the same xon:xoff ratio as the static
    /// configuration. Deep buffers then absorb bursts without pausing,
    /// while a filling buffer clamps thresholds down — the reason the
    /// paper's shallow-buffer switches must use small static thresholds.
    pub dynamic_alpha: Option<(u32, u32)>,
    /// Occupancy below which RESUME is sent. Must be ≤ `xoff`. Real
    /// switches leave a hysteresis gap below XOFF; the default of half the
    /// XOFF threshold reproduces the paper's Fig. 5 behaviour (a rate-limit
    /// crossover below which deadlock never forms despite frequent pauses).
    /// Setting `xon == xoff` (resume as soon as occupancy drops below the
    /// pause threshold) makes pause flapping so fine-grained that the
    /// four-way pause overlap of Fig. 4 eventually occurs at *any*
    /// rate-limit value — an instructive ablation.
    pub xon: Bytes,
    /// Pause expression.
    pub mode: PauseMode,
    /// Bitmask of 802.1p classes that are lossless (PFC-enabled). Traffic
    /// in other classes is dropped on overflow instead of paused.
    pub lossless_classes: u8,
}

impl Default for PfcConfig {
    fn default() -> Self {
        PfcConfig {
            xoff: Bytes::from_kb(40),
            dynamic_alpha: None,
            xon: Bytes::from_kb(20),
            mode: PauseMode::XonXoff,
            lossless_classes: 0xFF,
        }
    }
}

impl PfcConfig {
    /// Whether `prio` is a lossless class under this config.
    pub fn is_lossless(&self, prio: u8) -> bool {
        self.lossless_classes >> prio & 1 == 1
    }

    /// Validate threshold ordering.
    pub fn validate(&self) -> Result<(), Error> {
        if self.xon > self.xoff {
            return Err(Error::Config(format!(
                "xon ({}) must not exceed xoff ({})",
                self.xon, self.xoff
            )));
        }
        if self.xoff.is_zero() {
            return Err("xoff must be positive".into());
        }
        if let Some((num, den)) = self.dynamic_alpha {
            if den == 0 || num == 0 {
                return Err("dynamic alpha must be a positive ratio".into());
            }
        }
        Ok(())
    }
}

/// Egress arbitration between ingress ports contending for one
/// (egress, priority) queue.
///
/// The paper's NS-3 switch uses FIFO egress queues; the per-hop
/// per-ingress-port fairness of its footnote 4 *emerges* from PFC
/// pause/resume cycles rather than from a scheduler. FIFO is therefore the
/// default here, and it is required to reproduce Figures 3–5: explicit DRR
/// smooths arrivals so much that the ingress counters never reach the PFC
/// threshold in the Fig. 3 scenario (no pauses at all) — a useful ablation
/// in its own right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arbitration {
    /// Deficit round robin over ingress ports (explicit fairness; smooths
    /// out the burstiness that drives the paper's pause dynamics).
    Drr,
    /// Single FIFO in arrival order (NS-3's default; the paper's model).
    Fifo,
}

/// How an egress port arbitrates between *priority classes* (within a
/// class, see [`Arbitration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassScheduling {
    /// Strict priority: higher 802.1p classes always preempt lower ones
    /// (the common switch default; lower classes can starve).
    Strict,
    /// Round robin over the non-empty, non-paused classes: every class is
    /// guaranteed a share of the egress (used by the TTL-class experiments
    /// to stop band starvation from masking the capacity argument).
    Wrr,
}

/// ECN marking at egress queues (for DCQCN).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EcnConfig {
    /// Queue length where marking starts.
    pub kmin: Bytes,
    /// Queue length where marking probability reaches `pmax`.
    pub kmax: Bytes,
    /// Marking probability at `kmax` (beyond kmax everything is marked).
    pub pmax: f64,
    /// If set, mark on a *phantom queue* that drains at this fraction
    /// (per-mille) of line rate instead of the real queue — the
    /// "less is more" idea the paper cites for earlier congestion signals.
    pub phantom_drain_permille: Option<u32>,
}

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig {
            kmin: Bytes::from_kb(5),
            kmax: Bytes::from_kb(200),
            pmax: 0.01,
            phantom_drain_permille: None,
        }
    }
}

/// Whole-simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Default PFC settings for every switch.
    pub pfc: PfcConfig,
    /// Shared buffer per switch (the paper: 12 MB).
    pub switch_buffer: Bytes,
    /// Egress arbitration within one priority class.
    pub arbitration: Arbitration,
    /// Egress arbitration between priority classes.
    pub class_scheduling: ClassScheduling,
    /// Data packet payload+header size used by flows that don't override it.
    pub default_packet_size: Bytes,
    /// Hosts honour PFC frames from their ToR (true in RoCE deployments).
    pub host_respects_pfc: bool,
    /// Interval between occupancy samples (the paper samples every 1 µs);
    /// `None` disables sampling.
    pub sample_interval: Option<SimDuration>,
    /// Also track per-flow bytes inside each watched ingress queue
    /// (Fig. 3(d–g) plots per-flow occupancy).
    pub track_per_flow_occupancy: bool,
    /// ECN marking (None disables; required for DCQCN flows).
    pub ecn: Option<EcnConfig>,
    /// Seed for all stochastic choices (start jitter, ECN coin flips).
    pub seed: u64,
    /// Safety valve: abort after this many events (0 = unlimited).
    pub max_events: u64,
    /// Run the deadlock fixpoint analyzer periodically; `None` only checks
    /// at the end of the run.
    pub deadlock_scan_interval: Option<SimDuration>,
    /// Stop the simulation as soon as a deadlock is confirmed (a confirmed
    /// deadlock is permanent, so continuing only burns CPU).
    pub stop_on_deadlock: bool,
    /// Structured-buffer-pool mode (Gerla & Kleinrock / Karol et al.): remap
    /// each packet's class to `min(hops_traveled, n-1)` over `n` classes.
    /// Buffer dependencies then climb a finite class ladder, which provably
    /// breaks cycles when `n` ≥ the longest path — the expensive baseline
    /// the paper contrasts with.
    pub hop_class_mode: Option<u8>,
    /// L2 behaviour on a forwarding-table miss: replicate the packet out
    /// of every other port (flooding), as Ethernet switches do for
    /// unlearned MACs. This is the trigger of the real-world Clos deadlock
    /// the paper cites (Guo et al., SIGCOMM 2016): "the (unexpected)
    /// flooding of lossless class traffic". Default `false` (L3 behaviour:
    /// drop on miss).
    pub flood_on_miss: bool,
    /// The §4 TTL-class mitigation: remap each packet's class per hop by
    /// its *remaining* TTL band, so PFC (which operates per class) sees an
    /// effective TTL of at most `width` — the loop-deadlock threshold
    /// rises from `n·B/TTL` to `n·B/width`. Mutually exclusive with
    /// `hop_class_mode`.
    pub ttl_class_mode: Option<TtlClassConfig>,
    /// Reactive deadlock-recovery watchdog (see [`crate::recovery`]);
    /// `None` disables. `NetSim::enable_recovery` sets this and also
    /// clears `stop_on_deadlock`, since the point of recovery is to keep
    /// running through detections.
    pub recovery: Option<RecoveryConfig>,
    /// Event-queue backend. `None` (the default) is the hierarchical
    /// timing wheel; tests set `Some` to run the heap reference. Both
    /// backends pop in exactly `(time, seq)` order, so results are
    /// bit-identical either way — the field only trades scheduling cost
    /// (the wheel is O(1) for the short-horizon timers that dominate PFC
    /// fabrics).
    pub scheduler: Option<SchedulerBackend>,
    /// Unified instrumentation layer (see [`crate::telemetry`]): metric
    /// sampling cadence, probe selection, trace filter and sink. Disabled
    /// by default — an off-telemetry run schedules zero extra events and
    /// is bit-identical to an uninstrumented engine.
    pub telemetry: TelemetryConfig,
    /// Hybrid fluid/packet co-simulation (see [`crate::hybrid`]): flows
    /// provably clear of PFC thresholds, the deadlock watch set and the
    /// fault script advance as analytic fluid rates instead of per-packet
    /// events. `None` (the default) is off.
    pub hybrid: Option<HybridConfig>,
}

/// Parameters of the per-hop TTL-band class remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TtlClassConfig {
    /// Band width `X`: remaining TTLs in `[k·X, (k+1)·X)` share a class.
    pub width: u8,
    /// Lowest 802.1p class used.
    pub base_class: u8,
    /// Number of classes available; bands alias modulo this count.
    pub classes: u8,
}

impl TtlClassConfig {
    /// The class for a remaining-TTL value.
    pub fn class_for(&self, ttl: u8) -> u8 {
        self.base_class + (ttl / self.width) % self.classes
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), Error> {
        if self.width == 0 {
            return Err("TTL class width must be positive".into());
        }
        if self.classes == 0 || self.base_class + self.classes > 8 {
            return Err("TTL classes exceed the 802.1p range".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            pfc: PfcConfig::default(),
            switch_buffer: Bytes::from_mb(12),
            arbitration: Arbitration::Fifo,
            class_scheduling: ClassScheduling::Strict,
            default_packet_size: Bytes::new(1000),
            host_respects_pfc: true,
            sample_interval: Some(SimDuration::from_us(1)),
            track_per_flow_occupancy: true,
            ecn: None,
            seed: 1,
            max_events: 200_000_000,
            deadlock_scan_interval: Some(SimDuration::from_us(50)),
            stop_on_deadlock: true,
            flood_on_miss: false,
            hop_class_mode: None,
            ttl_class_mode: None,
            recovery: None,
            scheduler: None,
            telemetry: TelemetryConfig::default(),
            hybrid: None,
        }
    }
}

impl SimConfig {
    /// Validate cross-field constraints.
    pub fn validate(&self) -> Result<(), Error> {
        self.pfc.validate()?;
        if self.default_packet_size.is_zero() {
            return Err("packet size must be positive".into());
        }
        if self.switch_buffer < self.pfc.xoff {
            return Err("switch buffer smaller than one PFC threshold".into());
        }
        if let Some(ecn) = &self.ecn {
            if ecn.kmin > ecn.kmax {
                return Err("ECN kmin must be <= kmax".into());
            }
            if !(0.0..=1.0).contains(&ecn.pmax) {
                return Err("ECN pmax must be in [0,1]".into());
            }
        }
        if let Some(n) = self.hop_class_mode {
            if n == 0 || n as usize > crate::PRIORITY_COUNT {
                return Err(Error::Config(format!(
                    "hop_class_mode needs 1..=8 classes, got {n}"
                )));
            }
        }
        if let Some(tc) = &self.ttl_class_mode {
            tc.validate()?;
            if self.hop_class_mode.is_some() {
                return Err("hop_class_mode and ttl_class_mode are mutually exclusive".into());
            }
        }
        if let Some(rc) = &self.recovery {
            rc.validate()?;
        }
        self.telemetry.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert_eq!(c.pfc.xoff, Bytes::from_kb(40));
        assert_eq!(c.pfc.xon, Bytes::from_kb(20));
        assert_eq!(c.switch_buffer, Bytes::from_mb(12));
        assert_eq!(c.default_packet_size, Bytes::new(1000));
        assert_eq!(c.arbitration, Arbitration::Fifo);
    }

    #[test]
    fn pfc_validation_rejects_inverted_thresholds() {
        let mut p = PfcConfig::default();
        p.xon = Bytes::from_kb(50);
        assert!(p.validate().is_err());
        p.xon = Bytes::from_kb(20);
        p.validate().unwrap();
    }

    #[test]
    fn lossless_class_mask() {
        let mut p = PfcConfig::default();
        p.lossless_classes = 0b0000_1000;
        assert!(p.is_lossless(3));
        assert!(!p.is_lossless(0));
        assert!(!p.is_lossless(7));
    }

    #[test]
    fn config_rejects_tiny_buffer() {
        let mut c = SimConfig::default();
        c.switch_buffer = Bytes::from_kb(10);
        assert!(c.validate().is_err());
    }

    #[test]
    fn recovery_validation_rejects_zero_interval() {
        let mut c = SimConfig::default();
        c.recovery = Some(RecoveryConfig {
            check_interval: SimDuration::ZERO,
            ..RecoveryConfig::default()
        });
        assert!(c.validate().is_err());
        c.recovery = Some(RecoveryConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn ecn_validation() {
        let mut c = SimConfig::default();
        c.ecn = Some(EcnConfig {
            kmin: Bytes::from_kb(100),
            kmax: Bytes::from_kb(50),
            pmax: 0.1,
            phantom_drain_permille: None,
        });
        assert!(c.validate().is_err());
        c.ecn = Some(EcnConfig::default());
        c.validate().unwrap();
    }
}

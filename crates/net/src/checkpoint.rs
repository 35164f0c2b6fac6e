//! Crash-safe checkpoint/resume for a running simulation.
//!
//! A [`Checkpoint`] is a complete, versioned image of a [`NetSim`]
//! mid-run: the event queue's live entries, every switch/host/flow
//! runtime structure, per-ingress PFC accounting, the deadlock tracker's
//! pause state and epoch, accumulated statistics, telemetry state, and
//! both RNG streams. Restoring it with [`NetSim::resume`] and continuing
//! with [`NetSim::resume_run`](crate::sim::NetSim::resume_run) produces a
//! final [`RunReport`](crate::sim::RunReport) *bit-identical* to the
//! uninterrupted run — the property the `determinism_golden` test pins
//! against the golden digest.
//!
//! ## On-disk format
//!
//! `pfcsim-checkpoint/1` frames (see [`pfcsim_simcore::snap`]): a magic
//! string, the config digest, a length-prefixed binary value tree, and an
//! FNV-1a-64 checksum over everything before it. Every load validates the
//! checksum *and* re-derives the config digest from the embedded
//! `SimConfig`; a truncated, bit-flipped, or foreign file is a typed
//! [`CheckpointError`], never a panic or a silently wrong resume.
//! [`Checkpoint::save`] writes to a temp file and renames it into place,
//! so a crash mid-write leaves the previous checkpoint intact.
//!
//! ## Typical round trip
//!
//! ```ignore
//! // Producer: pause mid-run, snapshot, keep going (or exit).
//! if sim.advance_until(pause_at, horizon).is_none() {
//!     sim.checkpoint()?.save(path)?;
//! }
//! // Consumer (same or different process):
//! let ckpt = Checkpoint::load(path)?;
//! let mut sim = NetSim::resume(ckpt)?;
//! let report = sim.resume_run();
//! ```

use pfcsim_simcore::event::Backend;
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::snap;
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::graph::Topology;
use pfcsim_topo::ids::NodeId;
use pfcsim_topo::routing::ForwardingTables;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::config::{PfcConfig, SimConfig};
use crate::dcqcn::DcqcnConfig;
use crate::faults::FaultKind;
use crate::flow::FlowSpec;
use crate::host::{FlowRt, Host};
use crate::packet::{Frame, Packet};
use crate::sim::{Ev, NetSim, RebootState, RouteUpdate};
use crate::stats::{FlowStats, IngressKey, NetStats, PauseKey};
use crate::switch::{Switch, TxPause};
use crate::telemetry::TelemetrySnapshot;
use crate::timely::TimelyConfig;

/// Digest of a full [`SimConfig`]: FNV-1a-64 over its canonical binary
/// value encoding. Recorded in every
/// [`RunReport`](crate::sim::RunReport) and in every checkpoint frame
/// header; a resume refuses a checkpoint whose digest does not match the
/// live configuration.
pub fn config_digest(cfg: &SimConfig) -> u64 {
    snap::value_digest(cfg)
}

/// Why a checkpoint could not be produced, written, read, or restored.
///
/// Since the serve-API redesign this is an alias for the unified
/// workspace [`Error`](pfcsim_simcore::error::Error); the variant names
/// used by checkpoint code (`Io`, `Corrupt`, `Decode`,
/// `ConfigDigestMismatch`, `Unsupported`) are unchanged, so existing
/// matches keep compiling.
pub type CheckpointError = pfcsim_simcore::error::Error;

/// Image of the event queue: enough to rebuild pop-for-pop identical
/// behaviour on a fresh queue of the same backend.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct QueueSnapshot {
    /// The backend the run was using, so a resume continues on the
    /// same index structure.
    pub(crate) backend: Backend,
    /// Wheel tick shift (`None` for the heap).
    pub(crate) tick_shift: Option<u32>,
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    /// Live entries as `(time, seq, payload)`, ascending.
    pub(crate) entries: Vec<(SimTime, u64, Ev)>,
}

impl QueueSnapshot {
    /// Reject an image no queue can have produced before it reaches
    /// [`EventQueue::restore_state`](pfcsim_simcore::event::EventQueue::restore_state),
    /// which asserts some of this and silently trusts the rest. The frame
    /// checksum is FNV, not a MAC, so a checksum-valid frame can still
    /// carry entries before `now`, a reused sequence number (breaking the
    /// `(time, seq)` total order) or a tick geometry the backend never
    /// runs. The error names the offending field.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let bad = |field: &str, why: String| {
            Err(CheckpointError::Decode(format!("queue.{field}: {why}")))
        };
        // `Wheel` ticks come from `tick_shift_for_quantum`, clamped to
        // [6, 16]; the heap has none.
        match (self.backend, self.tick_shift) {
            (Backend::Wheel, Some(6..=16)) | (Backend::Heap, None) => {}
            (backend, shift) => {
                return bad(
                    "tick_shift",
                    format!("{shift:?} on the {backend:?} backend"),
                );
            }
        }
        let key = |e: &(SimTime, u64, Ev)| (e.0, e.1);
        if let Some(w) = self.entries.windows(2).find(|w| key(&w[0]) >= key(&w[1])) {
            return bad(
                "entries",
                format!("{:?} does not follow {:?}", key(&w[1]), key(&w[0])),
            );
        }
        if let Some(&(first, _, _)) = self.entries.first() {
            if first < self.now {
                return bad(
                    "entries",
                    format!("first entry at {first} predates now {}", self.now),
                );
            }
        }
        if let Some(seq) = self.entries.iter().map(|e| e.1).max() {
            if seq >= self.next_seq {
                return bad(
                    "next_seq",
                    format!("{} but seq {seq} is live", self.next_seq),
                );
            }
        }
        Ok(())
    }
}

/// A complete mid-run image of a [`NetSim`]. Produce with
/// [`NetSim::checkpoint`], persist with [`Checkpoint::save`], and turn
/// back into a running simulator with [`NetSim::resume`].
///
/// The image is self-contained: it embeds the topology, configuration,
/// and forwarding tables, so resuming needs nothing but the file.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    // --- identity: everything the sim was built from ---
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) tables: ForwardingTables,
    pub(crate) dcqcn_cfg: Option<DcqcnConfig>,
    pub(crate) timely_cfg: Option<TimelyConfig>,
    // --- scheduler ---
    pub(crate) queue: QueueSnapshot,
    pub(crate) meaningful: u64,
    pub(crate) horizon: SimTime,
    pub(crate) events: u64,
    // --- network state ---
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    /// Dense per-channel transmitter pause state (see `NetSim::tx_pause`).
    pub(crate) tx_pause: Vec<TxPause>,
    pub(crate) switch_pfc: Vec<Option<PfcConfig>>,
    pub(crate) host_in_flight: Vec<Option<Packet>>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) frame_free: Vec<u32>,
    pub(crate) link_up: Vec<bool>,
    // --- flows ---
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) rt: Vec<FlowRt>,
    pub(crate) fstats: Vec<FlowStats>,
    pub(crate) fstats_touched: Vec<bool>,
    pub(crate) fmap: Vec<u32>,
    pub(crate) pinned: Vec<Vec<u16>>,
    pub(crate) traced: Vec<bool>,
    pub(crate) next_pkt_id: u64,
    // --- randomness ---
    pub(crate) rng: SimRng,
    pub(crate) fault_rng: SimRng,
    // --- detector ---
    pub(crate) dl_paused: Vec<u32>,
    pub(crate) dl_epoch: u64,
    pub(crate) last_clean_scan: Option<u64>,
    pub(crate) scans_run: u64,
    pub(crate) scans_skipped: u64,
    pub(crate) deadlock: Option<(SimTime, Vec<PauseKey>)>,
    // --- faults ---
    pub(crate) fault_events: Vec<(SimTime, FaultKind)>,
    pub(crate) route_updates: Vec<RouteUpdate>,
    pub(crate) pfc_loss: Vec<Option<f64>>,
    pub(crate) pfc_delay: Vec<Option<pfcsim_simcore::time::SimDuration>>,
    pub(crate) pause_headroom: Bytes,
    pub(crate) reboots: BTreeMap<NodeId, RebootState>,
    // --- hybrid fluid/packet backend ---
    /// Region state of the hybrid backend (`None` when off or idle);
    /// `default` so pre-hybrid frames still decode.
    #[serde(default)]
    pub(crate) hybrid: Option<Box<crate::hybrid::HybridState>>,
    // --- sampling & telemetry ---
    pub(crate) stats: NetStats,
    pub(crate) watch_keys: Option<Vec<IngressKey>>,
    pub(crate) used_prios: u8,
    pub(crate) sample_keys: Vec<IngressKey>,
    pub(crate) telemetry: Option<TelemetrySnapshot>,
    pub(crate) trace_cap: u64,
}

impl Checkpoint {
    /// Simulated time the checkpoint was taken at.
    pub fn sim_time(&self) -> SimTime {
        self.queue.now
    }

    /// The run's final horizon (resume continues to it).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Digest of the embedded configuration — the value written into the
    /// frame header by [`Checkpoint::to_bytes`].
    pub fn config_digest(&self) -> u64 {
        config_digest(&self.cfg)
    }

    /// Refuse to pair this checkpoint with a configuration other than
    /// the one it was produced under. The error names both digests.
    pub fn verify_config(&self, live: &SimConfig) -> Result<(), CheckpointError> {
        let ours = self.config_digest();
        let theirs = config_digest(live);
        if ours == theirs {
            Ok(())
        } else {
            Err(CheckpointError::ConfigDigestMismatch {
                checkpoint: ours,
                live: theirs,
            })
        }
    }

    /// The frame and `fnv1a` of it: the state streamed into one buffer,
    /// one hash pass over it.
    fn frame(&self) -> (Vec<u8>, u64) {
        snap::encode_frame_digest(self.config_digest(), self)
    }

    /// Encode as a `pfcsim-checkpoint/1` frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.frame().0
    }

    /// `fnv1a(&self.to_bytes())` — the state fingerprint a serve session
    /// reports as `state_digest` — without the frame: the state is
    /// streamed once to size the payload and once into the hash, and
    /// nothing is allocated.
    pub fn digest(&self) -> u64 {
        snap::frame_digest(self.config_digest(), self)
    }

    /// Decode a frame, validating magic, checksum, and the header/payload
    /// config-digest agreement.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (header_digest, value) = snap::decode_frame(bytes)?;
        let ckpt: Checkpoint = serde::Deserialize::from_value(&value)
            .map_err(|e| CheckpointError::Decode(e.to_string()))?;
        let embedded = ckpt.config_digest();
        if embedded != header_digest {
            // The checksum passed, so the frame is internally consistent
            // — this means the header was written for a different config
            // than the payload carries (a spliced or hand-edited file).
            return Err(CheckpointError::ConfigDigestMismatch {
                checkpoint: header_digest,
                live: embedded,
            });
        }
        Ok(ckpt)
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, then rename
    /// over `path`. A crash mid-write leaves any previous checkpoint at
    /// `path` intact.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        self.save_digest(path).map(drop)
    }

    /// [`Checkpoint::save`], returning [`Checkpoint::digest`] of the
    /// frame written (same encode, same hash pass).
    pub fn save_digest(&self, path: impl AsRef<std::path::Path>) -> Result<u64, CheckpointError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let (bytes, digest) = self.frame();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(digest)
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

impl NetSim {
    /// Restore a checkpoint into a runnable simulator. Continue with
    /// [`NetSim::resume_run`](crate::sim::NetSim::resume_run); the
    /// resulting report is bit-identical to the uninterrupted run's.
    pub fn resume(ckpt: Checkpoint) -> Result<NetSim, CheckpointError> {
        NetSim::restore_from(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pfcsim_simcore::snap::SnapError;

    #[test]
    fn config_digest_is_stable_and_config_sensitive() {
        let a = SimConfig::default();
        let mut b = SimConfig::default();
        assert_eq!(config_digest(&a), config_digest(&b));
        b.seed = a.seed.wrapping_add(1);
        assert_ne!(config_digest(&a), config_digest(&b));
    }

    /// A real mid-run image (the golden scenario paused at 1 ms): the
    /// single-pass frame is byte-identical to the two-buffer layout it
    /// replaced, and `digest()` is `fnv1a` of exactly those bytes.
    #[test]
    fn mid_run_frame_and_digest_match_the_two_buffer_layout() {
        let mut arenas = crate::sim::SimArenas::new();
        let mut sim = crate::golden::build_sim(None, &mut arenas);
        assert!(sim
            .advance_until(SimTime::from_ms(1), crate::golden::DRAIN_UNTIL)
            .is_none());
        let ckpt = sim.checkpoint().expect("checkpointable");

        let mut body = Vec::new();
        snap::encode_value(&serde::Serialize::to_value(&ckpt), &mut body);
        let mut reference = snap::MAGIC.to_vec();
        reference.extend_from_slice(&ckpt.config_digest().to_le_bytes());
        reference.extend_from_slice(&(body.len() as u64).to_le_bytes());
        reference.extend_from_slice(&body);
        let checksum = snap::fnv1a(&reference);
        reference.extend_from_slice(&checksum.to_le_bytes());

        let bytes = ckpt.to_bytes();
        assert!(bytes.len() > 10_000, "a real image, not a toy");
        assert_eq!(bytes, reference);
        assert_eq!(ckpt.digest(), snap::fnv1a(&bytes));
        assert_eq!(ckpt.digest(), snap::fnv1a(&reference));
    }

    /// `hybrid` is `#[serde(default)]`: a frame written before the field
    /// existed (here: the golden run's, re-encoded without the key) loads
    /// and resumes to the golden digest.
    #[test]
    fn a_pre_hybrid_frame_still_loads_and_resumes() {
        use crate::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
        use serde::value::Value;
        let mut sim = golden::build_sim(None, &mut crate::sim::SimArenas::new());
        sim.schedule_flow_stops(STOP_AT);
        assert!(sim
            .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();

        let (cfg_digest, mut doc) = snap::decode_frame(&frame).expect("own frame");
        let Value::Object(members) = &mut doc else {
            panic!("a checkpoint is an object");
        };
        let before = members.len();
        members.retain(|(k, _)| k != "hybrid");
        assert_eq!(members.len(), before - 1, "the frame had a `hybrid` key");
        let old = snap::encode_frame(cfg_digest, &doc);

        let ckpt = Checkpoint::from_bytes(&old).expect("absent `hybrid` defaults");
        let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
        assert_eq!(golden::digest(&resumed), GOLDEN_DIGEST);

        // Present but malformed is still an error, not a default.
        let Value::Object(members) = &mut doc else {
            unreachable!()
        };
        members.push(("hybrid".into(), Value::Bool(true)));
        let bad = snap::encode_frame(cfg_digest, &doc);
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::Decode(_))
        ));
    }

    /// A checksum-valid frame whose event queue no run can have produced
    /// — the golden 1 500 µs frame with one queue field edited and the
    /// checksum recomputed — is a typed `Decode` naming that field, not a
    /// panic inside `restore_state` and not a resume that silently breaks
    /// the `(time, seq)` total order.
    #[test]
    fn resume_rejects_an_impossible_event_queue() {
        use crate::golden::{self, DRAIN_UNTIL, STOP_AT};
        let mut sim = golden::build_sim(None, &mut crate::sim::SimArenas::new());
        sim.schedule_flow_stops(STOP_AT);
        assert!(sim
            .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();

        type Edit = fn(&mut QueueSnapshot);
        let rows: [(&str, Edit, &str); 7] = [
            (
                "two entries swapped",
                |q| q.entries.swap(0, 1),
                "queue.entries",
            ),
            (
                "an entry duplicated",
                |q| q.entries[1] = q.entries[0].clone(),
                "queue.entries",
            ),
            (
                "first entry before now",
                |q| q.entries[0].0 = SimTime::from_ps(q.now.as_ps() - 1),
                "queue.entries",
            ),
            ("next_seq reused", |q| q.next_seq = 0, "queue.next_seq"),
            (
                "wheel tick out of range",
                |q| q.tick_shift = Some(70),
                "queue.tick_shift",
            ),
            (
                "wheel without a tick",
                |q| q.tick_shift = None,
                "queue.tick_shift",
            ),
            (
                "heap with a tick",
                |q| q.backend = Backend::Heap,
                "queue.tick_shift",
            ),
        ];
        for (row, edit, field) in rows {
            let mut ckpt = Checkpoint::from_bytes(&frame).expect("golden frame");
            assert!(ckpt.queue.entries.len() > 2, "a real queue");
            edit(&mut ckpt.queue);
            let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("checksum-valid");
            match NetSim::resume(ckpt) {
                Err(CheckpointError::Decode(msg)) => {
                    assert!(msg.contains(field), "{row}: {msg}")
                }
                Err(e) => panic!("{row}: wrong error {e}"),
                Ok(_) => panic!("{row}: accepted"),
            }
        }
        // The unedited frame still resumes.
        let ckpt = Checkpoint::from_bytes(&frame).expect("golden frame");
        assert!(NetSim::resume(ckpt).is_ok());
    }

    #[test]
    fn load_rejects_garbage_and_truncation() {
        assert!(matches!(
            Checkpoint::from_bytes(b"not a checkpoint at all"),
            Err(CheckpointError::Corrupt(SnapError::BadMagic))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&snap::MAGIC[..7]),
            Err(CheckpointError::Corrupt(SnapError::Truncated))
        ));
    }

    #[test]
    fn error_display_names_both_digests() {
        let e = CheckpointError::ConfigDigestMismatch {
            checkpoint: 0xABCD,
            live: 0x1234,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x000000000000abcd"), "{msg}");
        assert!(msg.contains("0x0000000000001234"), "{msg}");
    }
}

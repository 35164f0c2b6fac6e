//! Hostile bytes for `pfcsim-checkpoint/1`: a mutation fuzzer over real
//! frames, std-only and seeded, so every run replays the same frames.
//!
//! The corpus is two frames: a short k=4 fat-tree run and the golden
//! scenario paused at 1 500 µs. Each mutant gets byte flips, a truncation,
//! a rewritten length word or a rewritten tag byte, and is then re-sealed
//! — payload length and checksum recomputed — so decoding is actually
//! reached instead of stopping at the checksum. It then goes through
//! `Checkpoint::from_bytes` and `NetSim::resume`, and a resumed simulator
//! advances 10 µs. The outcome must be a typed error or a simulator that
//! advanced, never a panic, and no single allocation may be larger than
//! the frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pfcsim_net::golden::{self, DRAIN_UNTIL, STOP_AT};
use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_simcore::snap::{fnv1a, MAGIC};
use pfcsim_topo::prelude::*;

/// Mutants per corpus frame.
const MUTANTS: usize = 1_000;

thread_local! {
    /// The largest single allocation on this thread since the last reset:
    /// per thread, so the test harness's own threads do not count.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the record is a const-initialised thread-local
// `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(new_size)));
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Magic, config digest, payload length.
const HEADER: usize = MAGIC.len() + 16;

/// Where a valid payload keeps its tag bytes and its length words.
#[derive(Default)]
struct Map {
    tags: Vec<usize>,
    lens: Vec<usize>,
}

fn word(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Record the value encoded at `pos` (a valid encoding) and return the
/// offset just past it.
fn map_value(buf: &[u8], mut pos: usize, map: &mut Map) -> usize {
    map.tags.push(pos);
    let tag = buf[pos];
    pos += 1;
    match tag {
        0..=2 => pos,
        3..=5 => pos + 8,
        6 => {
            map.lens.push(pos);
            pos + 8 + word(buf, pos) as usize
        }
        7 | 8 => {
            map.lens.push(pos);
            let n = word(buf, pos);
            pos += 8;
            for _ in 0..n {
                if tag == 8 {
                    map.lens.push(pos);
                    pos += 8 + word(buf, pos) as usize;
                }
                pos = map_value(buf, pos, map);
            }
            pos
        }
        other => panic!("not a valid encoding: tag {other} at {pos}"),
    }
}

/// Recompute the payload length and the checksum of a mutated frame.
fn reseal(frame: &mut [u8]) {
    let n = frame.len();
    let payload = (n - HEADER - 8) as u64;
    frame[MAGIC.len() + 8..HEADER].copy_from_slice(&payload.to_le_bytes());
    let checksum = fnv1a(&frame[..n - 8]);
    frame[n - 8..].copy_from_slice(&checksum.to_le_bytes());
}

/// A length at some edge: empty, off by one, doubled, or absurd.
fn extreme_len(old: u64, rng: &mut Rng) -> u64 {
    let edges = [
        0,
        1,
        old.wrapping_sub(1),
        old + 1,
        old.wrapping_mul(2),
        u32::MAX as u64,
        1 << 40,
        u64::MAX,
    ];
    edges[rng.below(edges.len())]
}

/// One mutant of `frame`, re-sealed, and what was done to it.
fn mutate(frame: &[u8], map: &Map, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut out = frame.to_vec();
    let body = HEADER..frame.len() - 8;
    let what = match rng.below(4) {
        0 => {
            let mut flips = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let at = body.start + rng.below(body.len());
                let bit = rng.below(8);
                out[at] ^= 1 << bit;
                flips.push((at, bit));
            }
            format!("bit flips {flips:?}")
        }
        1 => {
            let cut = body.start + rng.below(body.len());
            out.truncate(cut);
            out.extend_from_slice(&[0; 8]);
            format!("truncated at {cut}")
        }
        2 => {
            let at = map.lens[rng.below(map.lens.len())];
            let new = extreme_len(word(frame, at), rng);
            out[at..at + 8].copy_from_slice(&new.to_le_bytes());
            format!("length at {at} set to {new}")
        }
        _ => {
            let at = map.tags[rng.below(map.tags.len())];
            let new = rng.below(10) as u8;
            out[at] = new;
            format!("tag at {at} set to {new}")
        }
    };
    reseal(&mut out);
    (out, what)
}

/// What a frame came to.
#[derive(Debug)]
enum Outcome {
    /// Decoding or resuming refused it with a typed error.
    Refused,
    /// It resumed and advanced 10 µs.
    Advanced,
}

/// Decode, resume and advance `bytes`; a panic comes back as its message.
fn exercise(bytes: &[u8]) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let ckpt = match Checkpoint::from_bytes(bytes) {
            Ok(c) => c,
            Err(_) => return Outcome::Refused,
        };
        let horizon = ckpt.horizon();
        let mut sim = match NetSim::resume(ckpt) {
            Ok(s) => s,
            Err(_) => return Outcome::Refused,
        };
        let pause =
            (sim.now().checked_add(SimDuration::from_us(10))).map_or(horizon, |t| t.min(horizon));
        sim.advance_until(pause, horizon);
        Outcome::Advanced
    }))
    .map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// A short k=4 fat-tree run, paused at 60 µs. No occupancy sampling, so
/// the frame is state, not history.
fn fat_tree_frame() -> Vec<u8> {
    let built = fat_tree(4, LinkSpec::default());
    let cfg = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(&built.topo).config(cfg).build();
    let n = built.hosts.len();
    for i in 0..n {
        let dst = built.hosts[(i + n / 2) % n];
        sim.add_flow(
            FlowSpec::cbr(i as u32, built.hosts[i], dst, BitRate::from_gbps(20)).with_ttl(16),
        );
    }
    assert!(sim
        .advance_until(SimTime::from_us(60), SimTime::from_us(500))
        .is_none());
    sim.checkpoint().expect("checkpointable").to_bytes()
}

/// The golden scenario paused at 1 500 µs.
fn golden_frame() -> Vec<u8> {
    let mut sim = golden::build_sim(None);
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
        .is_none());
    sim.checkpoint().expect("checkpointable").to_bytes()
}

/// Run every mutant of `frame`; returns `(refused, advanced)` counts.
fn fuzz(name: &str, frame: &[u8], seed: u64) -> (usize, usize) {
    let mut map = Map::default();
    assert_eq!(map_value(frame, HEADER, &mut map), frame.len() - 8);
    LARGEST.with(|m| m.set(0));
    let clean = exercise(frame);
    assert!(matches!(clean, Ok(Outcome::Advanced)), "{name}: {clean:?}");
    let mut rng = Rng(seed);
    let (mut refused, mut advanced, mut failures) = (0, 0, Vec::new());
    for _ in 0..MUTANTS {
        let (bytes, what) = mutate(frame, &map, &mut rng);
        LARGEST.with(|m| m.set(0));
        match exercise(&bytes) {
            Ok(Outcome::Refused) => refused += 1,
            Ok(Outcome::Advanced) => advanced += 1,
            Err(panic) => failures.push(format!("{name}: {what}: panicked: {panic}")),
        }
        let largest = LARGEST.with(Cell::get);
        if largest > frame.len() {
            failures.push(format!("{name}: {what}: allocated {largest} bytes"));
        }
    }
    eprintln!(
        "{name} ({} bytes): {MUTANTS} mutants, {refused} refused, {advanced} advanced, {} failed",
        frame.len(),
        failures.len()
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    (refused, advanced)
}

/// Mutants that panicked a resumed run, or made decoding reserve more
/// memory than the frame holds, before the checks that now refuse them:
/// `(corpus frame, bit flips)`. Both frames are deterministic (the golden
/// one is pinned byte for byte), so the offsets stay put.
const REGRESSIONS: &[(&str, &[(usize, u8)])] = &[
    // An egress queue's byte counter below its packets' (`Bytes` underflow).
    ("k=4", &[(261_411, 1)]),
    // A per-flow ledger without the flow its packets carry.
    ("k=4", &[(241_270, 0)]),
    // A queue length above its packets: "eligible queue non-empty".
    ("k=4", &[(235_861, 0)]),
    // An `Arrive` on a port its node does not have.
    ("k=4", &[(172_815, 7), (51_075, 1)]),
    // Forged array lengths: a 2 MiB reservation for a 0.9 MB frame.
    ("golden", &[(877_689, 7), (203_404, 3)]),
    ("golden", &[(346_549, 0), (126_812, 0), (579_006, 4)]),
];

#[test]
fn regression_mutants_are_refused_within_the_frame() {
    let (k4, gold) = (fat_tree_frame(), golden_frame());
    for &(corpus, flips) in REGRESSIONS {
        let mut bytes = if corpus == "k=4" {
            k4.clone()
        } else {
            gold.clone()
        };
        for &(at, bit) in flips {
            bytes[at] ^= 1 << bit;
        }
        reseal(&mut bytes);
        LARGEST.with(|m| m.set(0));
        let outcome = exercise(&bytes);
        assert!(
            matches!(outcome, Ok(Outcome::Refused)),
            "{corpus} {flips:?}: {outcome:?}"
        );
        assert!(LARGEST.with(Cell::get) <= bytes.len(), "{corpus} {flips:?}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2 000 decodes and resumes: run with --release"
)]
fn mutated_frames_are_refused_or_resume_cleanly() {
    let (r1, a1) = fuzz("k=4 fat-tree", &fat_tree_frame(), 0x5EED_C4EC_0001);
    let (r2, a2) = fuzz("golden 1500 µs", &golden_frame(), 0x5EED_C4EC_0002);
    // Neither outcome is vacuous: mutants reach the typed refusals and
    // the resume path both.
    assert!(r1 + r2 > 0 && a1 + a2 > 0);
}

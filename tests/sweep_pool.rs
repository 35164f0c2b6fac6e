//! The sweep pool under nesting: `repro all` maps over its experiments
//! and each experiment maps over its points, all on one pool.
//!
//! A nested `parallel_map` (6 outer × 20 inner points) must never run
//! more points at once than the pool has workers, return what the serial
//! map returns, surface an inner panic at the outer call after every
//! other point completes, and leave the permits balanced, so a later
//! nested map still reaches the pool's full width.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use pfcsim_experiments::sweep::{parallel_map, pool_size};

const OUTER: u64 = 6;
const INNER: u64 = 20;

/// Deterministic per-point work.
fn work(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2_000 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    h
}

/// What one nested map saw.
#[derive(Default)]
struct Census {
    /// Points running now, and the most ever running at once.
    running: AtomicUsize,
    peak: AtomicUsize,
    completed: AtomicUsize,
}

/// Counts a point as running until dropped, panics included.
struct Running<'a>(&'a Census);

impl<'a> Running<'a> {
    fn enter(c: &'a Census) -> Self {
        let now = c.running.fetch_add(1, SeqCst) + 1;
        c.peak.fetch_max(now, SeqCst);
        Running(c)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, SeqCst);
    }
}

/// The nested map; the point `poison` (outer, inner) panics.
fn nested(census: &Census, poison: Option<(u64, u64)>) -> Vec<Vec<u64>> {
    let outer: Vec<u64> = (0..OUTER).collect();
    let inner: Vec<u64> = (0..INNER).collect();
    let width = pool_size();
    // Points hold on until the pool has been seen at full width, so a
    // leaked permit shows as a narrow peak rather than by luck.
    let deadline = Instant::now() + Duration::from_secs(5);
    parallel_map(&outer, |&o| {
        // A nested map with no points still takes and gives back its
        // caller's permit.
        assert!(parallel_map(&[] as &[u64], |&i| i).is_empty());
        parallel_map(&inner, |&i| {
            let _running = Running::enter(census);
            while census.peak.load(SeqCst) < width && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            if poison == Some((o, i)) {
                panic!("poisoned point {o}/{i}");
            }
            let r = work(o * INNER + i);
            census.completed.fetch_add(1, SeqCst);
            r
        })
    })
}

fn serial() -> Vec<Vec<u64>> {
    (0..OUTER)
        .map(|o| (0..INNER).map(|i| work(o * INNER + i)).collect())
        .collect()
}

/// Peak within the pool and at its full width.
fn check_width(census: &Census, what: &str) {
    let peak = census.peak.load(SeqCst);
    assert!(peak <= pool_size(), "{what}: {peak} points ran at once");
    assert_eq!(
        peak,
        pool_size(),
        "{what}: the pool never reached full width"
    );
}

#[test]
fn nested_maps_share_one_pool() {
    let want = serial();

    let first = Census::default();
    assert_eq!(nested(&first, None), want);
    check_width(&first, "first nested map");

    // An inner panic surfaces at the outer call, named by both indices,
    // after every other point has completed.
    let poisoned = Census::default();
    let caught = catch_unwind(AssertUnwindSafe(|| nested(&poisoned, Some((3, 11)))))
        .expect_err("the inner panic reaches the outer call");
    let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("1 of 6") && msg.contains("item 3") && msg.contains("item 11"),
        "{msg}"
    );
    assert_eq!(
        poisoned.completed.load(SeqCst),
        (OUTER * INNER - 1) as usize
    );
    assert!(poisoned.peak.load(SeqCst) <= pool_size());

    // Permits are balanced: a second nested map reaches full width again.
    let second = Census::default();
    assert_eq!(nested(&second, None), want);
    check_width(&second, "nested map after a panic");
}

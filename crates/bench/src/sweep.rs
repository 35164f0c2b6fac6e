//! Deterministic parallel sweep runner on one process-wide pool.
//!
//! Every experiment in the harness fans the same shape of work out: a
//! slice of independent parameter points, each running its own
//! simulation, with results consumed in parameter order. [`parallel_map`]
//! is that shape as a function — threads pulling indices off a shared
//! atomic counter, results written into a pre-sized slot table so the
//! output order is the input order no matter which thread finishes
//! first.
//!
//! All calls share one pool of `PFCSIM_THREADS` permits (default: the
//! machine's available parallelism). A thread holds a permit while it
//! runs sweep points, so at most that many points run at once in the
//! whole process, nested calls included: `repro all` maps over its
//! fourteen experiments and each experiment maps over its points, and
//! a core one experiment leaves idle is taken by another's points.
//!
//! - The caller of [`parallel_map`] takes a permit (or keeps the
//!   one it runs under, when nested) and works through its own call's
//!   points.
//! - Helpers are scoped threads. Each waits for a free permit, claims
//!   points until none is left, and gives the permit back.
//! - A caller whose points are all claimed gives its permit back while
//!   its helpers finish, and takes one again before it returns to the
//!   point it runs under. Helpers still waiting are woken then and leave.
//!
//! A thread that user code spawns itself holds no permit, so a sweep it
//! starts waits for one like any top-level caller.
//!
//! Each point builds its own simulator and drops it when its run ends;
//! a worker carries nothing from one point to the next.
//!
//! Determinism contract: each simulation owns its RNG (seeded from its
//! parameters) and shares nothing mutable, so `parallel_map(items, f)`
//! returns byte-identical results to `items.iter().map(f).collect()` at
//! any pool size. `PFCSIM_THREADS=1` forces the serial path, which CI
//! uses to cross-check the parallel one.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// The pool's permits: one per worker, free or held by a thread that
/// runs sweep points.
struct Pool {
    size: usize,
    free: Mutex<usize>,
    /// Signalled when a permit is given back, which is also how a job's
    /// caller tells waiting helpers that the job has drained.
    changed: Condvar,
}

thread_local! {
    /// Whether this thread holds a permit (it runs sweep points).
    static HOLDS_PERMIT: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    /// Take a permit, blocking until one is free; returns `false`
    /// without one once `give_up()` holds (checked under the lock).
    fn take_unless(&self, give_up: impl Fn() -> bool) -> bool {
        let mut free = self.free.lock().expect("pool poisoned");
        loop {
            if give_up() {
                return false;
            }
            if *free > 0 {
                *free -= 1;
                HOLDS_PERMIT.with(|h| h.set(true));
                return true;
            }
            free = self.changed.wait(free).expect("pool poisoned");
        }
    }

    fn give_back(&self) {
        HOLDS_PERMIT.with(|h| h.set(false));
        *self.free.lock().expect("pool poisoned") += 1;
        self.changed.notify_all();
    }
}

/// The process-wide pool, sized from `PFCSIM_THREADS` at first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let var = std::env::var("PFCSIM_THREADS").ok();
        let (size, warning) = parse_threads(var.as_deref(), available);
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        Pool {
            size,
            free: Mutex::new(size),
            changed: Condvar::new(),
        }
    })
}

/// Pool size for a `PFCSIM_THREADS` value (`None`: unset), and the
/// warning to print, if any.
///
/// Unset means the machine's `available` parallelism. A *set but
/// invalid* value (`0`, empty, unparsable) means **1 worker** with a
/// warning, not the machine's core count: a malformed override in a CI
/// environment must degrade to the deterministic serial path, never
/// silently fan out.
pub(crate) fn parse_threads(var: Option<&str>, available: usize) -> (usize, Option<String>) {
    match var.map(|v| (v, v.trim().parse::<usize>())) {
        None => (available.max(1), None),
        Some((_, Ok(n))) if n >= 1 => (n, None),
        Some((v, _)) => (
            1,
            Some(format!(
                "warning: PFCSIM_THREADS={v:?} is not a positive integer; \
                 falling back to 1 worker"
            )),
        ),
    }
}

/// How many sweep points may run at once in this process.
pub fn pool_size() -> usize {
    pool().size
}

/// Apply `f` to every item, possibly in parallel, returning results in
/// input order.
///
/// Work is distributed dynamically (an atomic cursor, not static chunks),
/// so a sweep whose expensive points cluster at one end still balances.
/// Points are panic-isolated: a panic in `f` does not tear down sibling
/// points mid-task — every other point still completes, and the
/// aggregated failure is re-raised to the caller afterwards.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let pool = pool();
    let nested = HOLDS_PERMIT.with(Cell::get);
    if !nested {
        pool.take_unless(|| false);
    }
    // The cursor publishes nothing (results go through the slot mutexes),
    // so it is `Relaxed`. A helper reads `drained` under the pool lock,
    // and the caller gives its permit back under that lock after its
    // claim past the end, so a waiting helper sees the job drained.
    let cursor = AtomicUsize::new(0);
    let drained = || cursor.load(Ordering::Relaxed) >= items.len();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // (item index, panic message) for every task whose closure panicked.
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    // Claim points until none is left.
    let drain = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        match run_isolated(|| f(&items[i])) {
            Ok(r) => *slots[i].lock().expect("slot poisoned") = Some(r),
            Err(msg) => panics.lock().expect("panic log poisoned").push((i, msg)),
        }
    };
    let helpers = pool.size.min(items.len()).saturating_sub(1);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| {
                if pool.take_unless(drained) {
                    drain();
                    pool.give_back();
                }
            });
        }
        drain();
        pool.give_back();
    });
    if nested {
        pool.take_unless(|| false);
    }
    let mut panics = panics.into_inner().expect("panic log poisoned");
    if !panics.is_empty() {
        panics.sort_by_key(|&(i, _)| i);
        let (first_index, first_msg) = &panics[0];
        panic!(
            "{} of {} sweep point(s) panicked (first: item {first_index}: {first_msg}); \
             the remaining points completed",
            panics.len(),
            items.len(),
        );
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Run `f` under `catch_unwind`, rendering a panic payload to a string,
/// so one poisoned point cannot tear down sibling workers.
fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = parallel_map(&items, |&x| x * 3);
        let want: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        assert!(parallel_map(&items, |&x| x).is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    /// The `PFCSIM_THREADS` parser is pure, so no test mutates the
    /// environment the pool reads.
    #[test]
    fn thread_override_hardening_and_panic_isolation() {
        // Invalid overrides (zero, garbage, empty) degrade to 1 worker
        // with a warning naming the value.
        for bad in ["0", "not-a-number", "", "  "] {
            let (n, warning) = parse_threads(Some(bad), 8);
            assert_eq!(n, 1, "PFCSIM_THREADS={bad:?}");
            let warning = warning.expect("an invalid value warns");
            assert!(
                warning.contains(&format!("PFCSIM_THREADS={bad:?}")),
                "{warning}"
            );
        }
        assert_eq!(parse_threads(Some("3"), 8), (3, None));
        assert_eq!(parse_threads(Some(" 12 "), 2), (12, None));
        assert_eq!(parse_threads(None, 6), (6, None), "unset: available");

        // A panicking point lets every sibling finish, then re-raises an
        // aggregate panic naming the poisoned item.
        let items: Vec<u64> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                if x == 7 {
                    panic!("poisoned point");
                }
                x
            })
        })
        .expect_err("aggregate panic expected");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("1 of 10") && msg.contains("item 7"),
            "aggregate panic must name the failure: {msg}"
        );
    }

    #[test]
    fn matches_serial_map() {
        // Same closure, serial vs parallel: identical output.
        let items: Vec<(u64, u64)> = (0..64).map(|i| (i, i * i)).collect();
        let f = |&(a, b): &(u64, u64)| {
            // Deterministic per-item "work" seeded by the parameters.
            let mut h = a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b;
            for _ in 0..100 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            h
        };
        let serial: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(parallel_map(&items, f), serial);
    }
}

//! Deterministic parallel sweep runner.
//!
//! Every experiment in the harness fans the same shape of work out: a
//! slice of independent parameter points, each running its own
//! simulation, with results consumed in parameter order. [`parallel_map`]
//! is that shape as a function — scoped std threads pulling indices off a
//! shared atomic counter, results written into a pre-sized slot table so
//! the output order is the input order no matter which thread finishes
//! first.
//!
//! Determinism contract: each simulation owns its RNG (seeded from its
//! parameters) and shares nothing mutable, so `parallel_map(items, f)`
//! returns byte-identical results to `items.iter().map(f).collect()` at
//! any thread count. `PFCSIM_THREADS=1` forces the serial path, which CI
//! uses to cross-check the parallel one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `PFCSIM_THREADS` if set and valid, otherwise the
/// machine's available parallelism, never more than the number of work
/// items.
///
/// A *set but invalid* `PFCSIM_THREADS` (`0`, empty, unparsable) falls
/// back to **1 worker** with a one-time stderr warning, not to the
/// machine's core count: a malformed override in a CI environment must
/// degrade to the deterministic serial path, never silently fan out.
pub(crate) fn worker_count(items: usize) -> usize {
    let requested = match std::env::var("PFCSIM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: PFCSIM_THREADS={v:?} is not a positive integer; \
                         falling back to 1 worker"
                    );
                });
                1
            }
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    requested.min(items).max(1)
}

/// Apply `f` to every item, possibly in parallel, returning results in
/// input order.
///
/// Work is distributed dynamically (an atomic cursor, not static chunks),
/// so a sweep whose expensive points cluster at one end still balances.
/// Workers are panic-isolated: a panic in `f` no longer tears down
/// sibling workers mid-task — every other point still completes, and the
/// aggregated failure is re-raised to the caller afterwards.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), |_, item| f(item))
}

/// [`parallel_map`] with per-worker scratch state: every worker thread
/// calls `init()` once and threads the value through each item it
/// processes.
///
/// This is the hook for allocation reuse across sweep points — pass
/// `SimArenas::new` as `init` and build each point's simulator with
/// `SimBuilder::build_in` / recycle it back, and a worker's steady-state
/// iterations stop allocating. The scratch value must not affect results
/// (the determinism contract above still applies at any thread count, and
/// the serial path funnels every item through a single scratch value).
pub fn parallel_map_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // (item index, panic message) for every task whose closure panicked.
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match run_isolated(|| f(&mut scratch, &items[i])) {
                        Ok(r) => *slots[i].lock().expect("slot poisoned") = Some(r),
                        Err(msg) => {
                            panics.lock().expect("panic log poisoned").push((i, msg));
                            // The closure may have left the per-worker
                            // scratch half-mutated; rebuild it before the
                            // next task.
                            scratch = init();
                        }
                    }
                }
            });
        }
    });
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

    #[test]
    fn with_scratch_matches_plain_map() {
        // Scratch is reused across items within a worker but must not
        // leak into results.
        let items: Vec<u64> = (0..50).collect();
        let got = parallel_map_with(&items, Vec::<u64>::new, |scratch, &x| {
            scratch.push(x); // arbitrary per-worker state
            x * 7
        });
        let want: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        assert_eq!(got, want);
    }

    /// Env-var handling and panic isolation share one test so the
    /// `PFCSIM_THREADS` mutations cannot race each other; sibling tests
    /// that *read* the var mid-mutation only ever see a value that
    /// changes their worker count, never their results.
    #[test]
    fn thread_override_hardening_and_panic_isolation() {
        // Invalid overrides (zero, garbage, empty) degrade to 1 worker.
        for bad in ["0", "not-a-number", "", "  "] {
            std::env::set_var("PFCSIM_THREADS", bad);
            assert_eq!(worker_count(8), 1, "PFCSIM_THREADS={bad:?}");
        }
        std::env::set_var("PFCSIM_THREADS", "3");
        assert_eq!(worker_count(8), 3);
        assert_eq!(worker_count(2), 2, "never more workers than items");

        // With >1 workers, a panicking point lets every sibling finish,
        // then re-raises an aggregate panic naming the poisoned item.
        std::env::set_var("PFCSIM_THREADS", "4");
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
        std::env::remove_var("PFCSIM_THREADS");
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

//! Supervised parallel execution: panic isolation, per-task wall-clock
//! watchdogs, bounded retry, and partial-result salvage.
//!
//! [`crate::sweep::parallel_map`] is the fast path for healthy sweeps;
//! this module is the crash-safe one. [`supervised_map`] runs every item
//! under `catch_unwind`, watches each in-flight task against a wall-clock
//! deadline, retries failed attempts with backoff up to a bounded budget,
//! and — when a point is beyond saving — records a typed
//! [`TaskFailure`] and keeps going. A ten-point sweep with one poisoned
//! point returns nine results and one failure record; it never aborts
//! the process and never silently drops the healthy 90 %.
//!
//! A hung task cannot be killed from safe code, so the watchdog
//! *abandons* it: the worker thread is left to finish (or sleep forever;
//! it dies with the process), its eventual result is discarded, and a
//! replacement worker is spawned so the sweep keeps its parallelism.
//! This is why [`supervised_map`] takes owned items and a `'static`
//! closure — a scoped borrow could not outlive an abandoned thread.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a sweep point ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Every attempt panicked; the payload of the last panic.
    Panicked(String),
    /// Every attempt exceeded the wall-clock budget.
    TimedOut(Duration),
}

/// A sweep point that failed after exhausting its attempt budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Attempts consumed (= the configured budget).
    pub attempts: u32,
    /// What the final attempt died of.
    pub kind: FailureKind,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panicked(msg) => write!(
                f,
                "task {} failed after {} attempt(s): panic: {msg}",
                self.index, self.attempts
            ),
            FailureKind::TimedOut(limit) => write!(
                f,
                "task {} failed after {} attempt(s): exceeded {limit:?} wall-clock budget",
                self.index, self.attempts,
            ),
        }
    }
}

/// Supervision policy for [`supervised_map`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Total attempts per item (1 = no retry). Retrying assumes `f` is a
    /// pure function of its item — exactly the sweep determinism
    /// contract — so a retried attempt reproduces the original result.
    pub max_attempts: u32,
    /// Sleep before retry `k` is `backoff * k` (linear; retry 1 waits one
    /// unit, retry 2 two, ...), giving a transiently-starved host room to
    /// recover without stalling the healthy workers.
    pub backoff: Duration,
    /// Wall-clock budget per attempt; `None` disables the watchdog.
    pub task_timeout: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 1,
            backoff: Duration::from_millis(25),
            task_timeout: None,
        }
    }
}

/// The salvage of a supervised sweep: results in input order (`None`
/// where the point failed) plus one typed record per failed point.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Per-item results; `results[i]` is `None` iff item `i` appears in
    /// `failures`.
    pub results: Vec<Option<R>>,
    /// Failed points, sorted by index. Empty means a clean sweep.
    pub failures: Vec<TaskFailure>,
}

impl<R> SweepOutcome<R> {
    /// Number of points that produced a result.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// `true` when every point succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwrap a clean sweep into plain results, or hand back the partial
    /// outcome for salvage.
    pub fn into_complete(self) -> Result<Vec<R>, SweepOutcome<R>> {
        if self.is_complete() {
            Ok(self
                .results
                .into_iter()
                .map(|r| r.expect("complete"))
                .collect())
        } else {
            Err(self)
        }
    }
}

/// Run `f` under `catch_unwind`, rendering a panic payload to a string.
///
/// The shared panic-isolation primitive: `parallel_map` uses it to keep
/// one poisoned point from tearing down sibling workers, and the
/// supervised workers use it to convert panics into typed failures.
pub(crate) fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
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

/// What a worker reports back to the supervisor.
enum Msg<R> {
    /// Worker picked up `(index, attempt)` — starts its watchdog clock.
    Started {
        worker: usize,
        index: usize,
        attempt: u32,
    },
    /// Worker finished `(index, attempt)`.
    Done {
        worker: usize,
        index: usize,
        attempt: u32,
        outcome: Result<R, String>,
    },
}

/// Apply `f` to every item under supervision, returning the salvage.
///
/// Results are in input order and — because `f` must be a pure function
/// of its item (the sweep determinism contract) — byte-identical to the
/// unsupervised [`crate::sweep::parallel_map`] on the points that
/// succeed, at any thread count (`PFCSIM_THREADS` is honoured).
pub fn supervised_map<T, R, F>(items: Vec<T>, cfg: &SupervisorConfig, f: F) -> SweepOutcome<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    assert!(cfg.max_attempts >= 1, "at least one attempt per task");
    let n = items.len();
    if n == 0 {
        return SweepOutcome {
            results: Vec::new(),
            failures: Vec::new(),
        };
    }
    let items = Arc::new(items);
    let f = Arc::new(f);
    let (task_tx, task_rx) = mpsc::channel::<(usize, u32)>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let (msg_tx, msg_rx) = mpsc::channel::<Msg<R>>();
    for i in 0..n {
        task_tx.send((i, 1)).expect("queue open");
    }

    let workers = crate::sweep::worker_count(n);
    let backoff = cfg.backoff;
    let spawn_worker = |id: usize| {
        let items = Arc::clone(&items);
        let f = Arc::clone(&f);
        let task_rx = Arc::clone(&task_rx);
        let msg_tx = msg_tx.clone();
        std::thread::spawn(move || {
            loop {
                // Holding the lock across `recv` serializes task
                // *pickup* (not execution): an idle worker parks here
                // until the supervisor queues work or hangs up.
                let task = {
                    let rx = task_rx.lock().expect("task queue poisoned");
                    rx.recv()
                };
                let Ok((index, attempt)) = task else { return };
                if attempt > 1 {
                    std::thread::sleep(backoff.saturating_mul(attempt - 1));
                }
                if msg_tx
                    .send(Msg::Started {
                        worker: id,
                        index,
                        attempt,
                    })
                    .is_err()
                {
                    return; // supervisor gone
                }
                let outcome = run_isolated(|| f(&items[index]));
                if msg_tx
                    .send(Msg::Done {
                        worker: id,
                        index,
                        attempt,
                        outcome,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
    };
    let mut next_worker = 0usize;
    for _ in 0..workers {
        spawn_worker(next_worker);
        next_worker += 1;
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut failures: Vec<TaskFailure> = Vec::new();
    let mut resolved = 0usize;
    // worker id -> (index, attempt, started) for the watchdog.
    let mut in_flight: HashMap<usize, (usize, u32, Instant)> = HashMap::new();
    // Workers whose task timed out: their late messages are discarded.
    let mut abandoned: HashSet<usize> = HashSet::new();
    let mut requeue: VecDeque<(usize, u32)> = VecDeque::new();
    while resolved < n {
        let msg = match cfg.task_timeout {
            // Wake at least every 25 ms to sweep the watchdog.
            Some(_) => match msg_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(m) => Some(m),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
            None => match msg_rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            },
        };
        match msg {
            Some(Msg::Started {
                worker,
                index,
                attempt,
            }) if !abandoned.contains(&worker) => {
                in_flight.insert(worker, (index, attempt, Instant::now()));
            }
            Some(Msg::Started { .. }) => {}
            Some(Msg::Done {
                worker,
                index,
                attempt,
                outcome,
            }) => {
                if abandoned.contains(&worker) {
                    continue; // stale result from a timed-out attempt
                }
                in_flight.remove(&worker);
                match outcome {
                    Ok(r) => {
                        if results[index].is_none() {
                            results[index] = Some(r);
                            resolved += 1;
                        }
                    }
                    Err(_) if attempt < cfg.max_attempts => {
                        requeue.push_back((index, attempt + 1));
                    }
                    Err(msg) => {
                        failures.push(TaskFailure {
                            index,
                            attempts: attempt,
                            kind: FailureKind::Panicked(msg),
                        });
                        resolved += 1;
                    }
                }
            }
            None => {}
        }
        if let Some(limit) = cfg.task_timeout {
            let now = Instant::now();
            let overdue: Vec<usize> = in_flight
                .iter()
                .filter(|(_, &(_, _, started))| now.duration_since(started) >= limit)
                .map(|(&w, _)| w)
                .collect();
            for worker in overdue {
                let (index, attempt, _) = in_flight.remove(&worker).expect("overdue");
                abandoned.insert(worker);
                if attempt < cfg.max_attempts {
                    requeue.push_back((index, attempt + 1));
                } else {
                    failures.push(TaskFailure {
                        index,
                        attempts: attempt,
                        kind: FailureKind::TimedOut(limit),
                    });
                    resolved += 1;
                }
                // The hung worker is lost capacity; replace it.
                spawn_worker(next_worker);
                next_worker += 1;
            }
        }
        while let Some(task) = requeue.pop_front() {
            if task_tx.send(task).is_err() {
                break;
            }
        }
    }
    drop(task_tx); // idle workers see the hangup and exit
    failures.sort_by_key(|t| t.index);
    SweepOutcome { results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_attempts: u32, timeout_ms: Option<u64>) -> SupervisorConfig {
        SupervisorConfig {
            max_attempts,
            backoff: Duration::from_millis(1),
            task_timeout: timeout_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn clean_sweep_matches_serial() {
        let items: Vec<u64> = (0..40).collect();
        let out = supervised_map(items.clone(), &cfg(1, None), |&x| x * 13);
        assert!(out.is_complete());
        let got = out.into_complete().expect("complete");
        let want: Vec<u64> = items.iter().map(|&x| x * 13).collect();
        assert_eq!(got, want);
    }

    /// The acceptance shape: ten points, one deterministic panic —
    /// nine salvaged results plus one typed failure, no abort.
    #[test]
    fn one_poisoned_point_salvages_the_other_nine() {
        let items: Vec<u64> = (0..10).collect();
        let out = supervised_map(items, &cfg(2, None), |&x| {
            if x == 7 {
                panic!("injected failure at point {x}");
            }
            x + 100
        });
        assert_eq!(out.completed(), 9);
        assert_eq!(out.failures.len(), 1);
        let failure = &out.failures[0];
        assert_eq!(failure.index, 7);
        assert_eq!(failure.attempts, 2, "retry budget must be exhausted");
        match &failure.kind {
            FailureKind::Panicked(msg) => assert!(msg.contains("injected failure")),
            other => panic!("wrong kind: {other:?}"),
        }
        for (i, r) in out.results.iter().enumerate() {
            if i == 7 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(i as u64 + 100));
            }
        }
        assert!(out.into_complete().is_err());
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static STRIKES: AtomicU32 = AtomicU32::new(0);
        STRIKES.store(0, Ordering::SeqCst);
        let items: Vec<u64> = (0..4).collect();
        let out = supervised_map(items, &cfg(3, None), |&x| {
            if x == 2 && STRIKES.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x
        });
        assert!(out.is_complete(), "retry must rescue a transient failure");
        assert_eq!(out.results[2], Some(2));
    }

    #[test]
    fn hung_task_times_out_and_is_abandoned() {
        let items: Vec<u64> = (0..6).collect();
        let out = supervised_map(items, &cfg(1, Some(80)), |&x| {
            if x == 3 {
                // Far past the 80 ms budget; the watchdog abandons the
                // worker and the sweep finishes without waiting.
                std::thread::sleep(Duration::from_secs(30));
            }
            x * 2
        });
        assert_eq!(out.completed(), 5);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].index, 3);
        assert!(matches!(out.failures[0].kind, FailureKind::TimedOut(_)));
    }

    #[test]
    fn empty_input() {
        let out = supervised_map(Vec::<u32>::new(), &SupervisorConfig::default(), |&x| x);
        assert!(out.is_complete());
        assert!(out.results.is_empty());
    }

    #[test]
    fn failure_display_is_typed_and_readable() {
        let p = TaskFailure {
            index: 4,
            attempts: 2,
            kind: FailureKind::Panicked("boom".into()),
        };
        assert_eq!(
            p.to_string(),
            "task 4 failed after 2 attempt(s): panic: boom"
        );
        let t = TaskFailure {
            index: 1,
            attempts: 1,
            kind: FailureKind::TimedOut(Duration::from_millis(1500)),
        };
        assert_eq!(
            t.to_string(),
            "task 1 failed after 1 attempt(s): exceeded 1.5s wall-clock budget"
        );
    }
}

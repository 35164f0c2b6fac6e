//! Process-wide warn-once registry.
//!
//! Runtime gates (hybrid backend fallback) warn on stderr the first time
//! they fire and stay silent afterwards. The latches used to be one `static Once` per call site,
//! which meant a long-lived [`serve`](crate::serve) session toggling
//! backends re-emitted the same complaint once per subsystem. All sites
//! now share this single keyed registry: one key, one warning,
//! process-wide, regardless of which subsystem reports it first.

use std::collections::BTreeSet;
use std::sync::Mutex;

static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Print `msg()` to stderr the first time `key` is seen in this process;
/// later calls with the same key (from any subsystem) are free no-ops.
/// Returns whether the message was emitted.
pub(crate) fn warn_once(key: &str, msg: impl FnOnce() -> String) -> bool {
    let mut seen = SEEN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if seen.insert(key.to_string()) {
        eprintln!("{}", msg());
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_key_fires_once_across_subsystems() {
        // Unique keys so other tests in the same process can't collide.
        let k = "test:warn:alpha";
        assert!(warn_once(k, || "first".into()));
        assert!(!warn_once(k, || "second".into()));
        // A different key is independent.
        assert!(warn_once("test:warn:beta", || "other".into()));
    }
}

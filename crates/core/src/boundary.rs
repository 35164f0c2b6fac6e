//! The boundary-state model (paper §3.1, Table 1, Equations 1–3).
//!
//! For a single flow trapped in an `n`-switch routing loop with link
//! bandwidth `B` and initial TTL `T`:
//!
//! * Eq. 1 — boundary balance at the first switch: `r + B − r_d = B`;
//! * Eq. 2 — TTL conservation in the boundary state: `n·B = TTL·r`;
//! * Eq. 3 — deadlock iff the injection rate exceeds the drain:
//!   `r > r_d = n·B / TTL`.
//!
//! The model's testbed validation point: `B = 40 Gbps, n = 2, TTL = 16 ⇒`
//! deadlock threshold 5 Gbps — exactly what both the paper's hardware and
//! this crate's simulator (see `tests/` and the bench crate) observe.

use serde::{Deserialize, Serialize};

use pfcsim_net::bdg::deadlock_threshold;
use pfcsim_simcore::units::BitRate;

/// Boundary-state model of a routing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryModel {
    /// Loop length in switches (`n` in Table 1).
    pub loop_len: u32,
    /// Link bandwidth (`B`).
    pub bandwidth: BitRate,
    /// Initial TTL of injected packets.
    pub ttl: u32,
}

impl BoundaryModel {
    /// Build a model; all parameters must be positive.
    pub fn new(loop_len: u32, bandwidth: BitRate, ttl: u32) -> Self {
        assert!(loop_len >= 1, "loop length must be positive");
        assert!(!bandwidth.is_zero(), "bandwidth must be positive");
        assert!(ttl >= 1, "TTL must be positive");
        BoundaryModel {
            loop_len,
            bandwidth,
            ttl,
        }
    }

    /// Eq. 3's right-hand side: the TTL-expiry drain rate `r_d = n·B/TTL`,
    /// which is also the deadlock threshold on the injection rate.
    pub fn deadlock_threshold(&self) -> BitRate {
        deadlock_threshold(self.loop_len as u64, self.bandwidth, self.ttl as u64)
    }

    /// Eq. 3: does injection rate `r` lead to deadlock?
    pub fn predicts_deadlock(&self, r: BitRate) -> bool {
        r > self.deadlock_threshold()
    }

    /// Loop-link utilisation below the boundary: `u = r·TTL / (n·B)`,
    /// capped at 1. At `u = 1` the loop saturates and queues grow without
    /// bound — the onset of deadlock.
    pub fn loop_utilization(&self, r: BitRate) -> f64 {
        let u =
            r.bps() as f64 * self.ttl as f64 / (self.loop_len as f64 * self.bandwidth.bps() as f64);
        u.min(1.0)
    }

    /// The §4 TTL-class refinement: if packets are partitioned into
    /// priority classes by TTL bands of width `class_width`, PFC operates
    /// per class and the *effective* TTL is at most `class_width`; the
    /// threshold rises to `n·B / class_width`.
    pub fn threshold_with_class_width(&self, class_width: u32) -> BitRate {
        assert!(class_width >= 1, "class width must be positive");
        deadlock_threshold(self.loop_len as u64, self.bandwidth, class_width as u64)
    }

    /// §4's safety guarantee: with initial TTL ≤ loop length the threshold
    /// reaches `B` itself, which an injector can never exceed — no deadlock
    /// at any rate.
    pub fn is_unconditionally_safe(&self) -> bool {
        self.ttl <= self.loop_len
    }

    /// The maximum safe injection rate for a target margin (e.g. 0.9 stays
    /// 10% under the threshold) — the §4 rate-limiting mitigation.
    pub fn safe_rate(&self, margin: f64) -> BitRate {
        assert!((0.0..=1.0).contains(&margin), "margin in [0,1]");
        let t = self.deadlock_threshold().bps() as f64 * margin;
        BitRate::from_bps(t as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> BoundaryModel {
        BoundaryModel::new(2, BitRate::from_gbps(40), 16)
    }

    #[test]
    fn paper_validation_point_is_5gbps() {
        assert_eq!(paper_model().deadlock_threshold(), BitRate::from_gbps(5));
    }

    #[test]
    fn predicts_deadlock_strictly_above_threshold() {
        let m = paper_model();
        assert!(!m.predicts_deadlock(BitRate::from_gbps(4)));
        assert!(
            !m.predicts_deadlock(BitRate::from_gbps(5)),
            "boundary itself balances"
        );
        assert!(m.predicts_deadlock(BitRate::from_mbps(5_001)));
        assert!(m.predicts_deadlock(BitRate::from_gbps(6)));
    }

    #[test]
    fn threshold_monotonicity() {
        // Larger bandwidth, shorter loop or smaller TTL ⇒ higher threshold
        // ("With larger bandwidth, shorter loop length or smaller initial
        // TTL values, the threshold of r can be higher" — §3.1).
        let base = paper_model().deadlock_threshold();
        assert!(BoundaryModel::new(2, BitRate::from_gbps(100), 16).deadlock_threshold() > base);
        assert!(BoundaryModel::new(3, BitRate::from_gbps(40), 16).deadlock_threshold() > base);
        assert!(BoundaryModel::new(2, BitRate::from_gbps(40), 8).deadlock_threshold() > base);
        assert!(BoundaryModel::new(2, BitRate::from_gbps(40), 32).deadlock_threshold() < base);
    }

    #[test]
    fn utilization_saturates_at_threshold() {
        let m = paper_model();
        assert!((m.loop_utilization(BitRate::from_gbps(5)) - 1.0).abs() < 1e-12);
        let half = m.loop_utilization(BitRate::from_mbps(2_500));
        assert!((half - 0.5).abs() < 1e-12);
        assert_eq!(m.loop_utilization(BitRate::from_gbps(40)), 1.0, "capped");
    }

    #[test]
    fn class_width_raises_threshold() {
        let m = paper_model();
        // Width-4 TTL classes: threshold 2*40/4 = 20 Gbps.
        assert_eq!(m.threshold_with_class_width(4), BitRate::from_gbps(20));
        // Width ≤ n: threshold ≥ B — unconditionally safe.
        assert!(m.threshold_with_class_width(2) >= m.bandwidth);
    }

    #[test]
    fn unconditional_safety_when_ttl_at_most_loop_len() {
        assert!(!paper_model().is_unconditionally_safe());
        assert!(BoundaryModel::new(8, BitRate::from_gbps(40), 8).is_unconditionally_safe());
        assert!(BoundaryModel::new(8, BitRate::from_gbps(40), 4).is_unconditionally_safe());
    }

    #[test]
    fn safe_rate_applies_margin() {
        let m = paper_model();
        assert_eq!(m.safe_rate(1.0), BitRate::from_gbps(5));
        assert_eq!(m.safe_rate(0.8), BitRate::from_gbps(4));
        assert_eq!(m.safe_rate(0.0), BitRate::ZERO);
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        BoundaryModel::new(2, BitRate::from_gbps(40), 0);
    }
}

//! Token-bucket rate limiter (ingress shaping).
//!
//! Commodity switches "support bandwidth shaping for each priority class or
//! even particular flows" (paper §4); the Case-3 experiment attaches one to
//! switch B's ingress port RX2. The bucket gates the hand-off from ingress
//! accounting to the egress queue: a held packet still occupies ingress
//! buffer, so sustained over-rate arrivals push the ingress over the PFC
//! threshold and pause the upstream sender — shaping, not dropping.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::time::{SimDuration, SimTime, PS_PER_SEC};
use pfcsim_simcore::units::{BitRate, Bytes};

/// A token bucket with *exact* integer accounting.
///
/// Credit is stored in bit·picoseconds (`credit / PS_PER_SEC` = bits), so
/// refills of arbitrary interleaving never lose fractional tokens: the
/// bucket is a pure function of (rate, burst, consumption history),
/// independent of how often it is observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenBucket {
    pub(crate) rate: BitRate,
    pub(crate) burst: Bytes,
    /// Credit in bit·ps.
    pub(crate) credit: u128,
    pub(crate) last_update: SimTime,
}

/// Credit units per bit.
const BITPS: u128 = PS_PER_SEC as u128;

impl TokenBucket {
    /// A bucket refilling at `rate`, holding at most `burst` bytes of
    /// credit, starting full at t = 0.
    pub fn new(rate: BitRate, burst: Bytes) -> Self {
        assert!(!rate.is_zero(), "shaper rate must be positive");
        assert!(!burst.is_zero(), "burst must be positive");
        TokenBucket {
            rate,
            burst,
            credit: burst.bits() as u128 * BITPS,
            last_update: SimTime::ZERO,
        }
    }

    /// Configured rate.
    pub fn rate(&self) -> BitRate {
        self.rate
    }

    /// Configured burst.
    pub fn burst(&self) -> Bytes {
        self.burst
    }

    fn refill(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = now.saturating_since(self.last_update).as_ps() as u128;
        let cap = self.burst.bits() as u128 * BITPS;
        self.credit = (self.credit + self.rate.bps() as u128 * dt).min(cap);
        self.last_update = now;
    }

    /// Try to spend `size` bytes of credit at `now`. On success the credit
    /// is consumed and `Ok(())` returned; otherwise returns the exact time
    /// at which enough credit will have accumulated.
    pub fn try_consume(&mut self, now: SimTime, size: Bytes) -> Result<(), SimTime> {
        assert!(
            size <= self.burst,
            "packet ({size}) larger than burst ({})",
            self.burst
        );
        self.refill(now);
        let need = size.bits() as u128 * BITPS;
        if self.credit >= need {
            self.credit -= need;
            Ok(())
        } else {
            let deficit = need - self.credit;
            let ps = deficit.div_ceil(self.rate.bps() as u128);
            let ready = now
                .checked_add(SimDuration::from_ps(
                    u64::try_from(ps).expect("shaper wait fits u64 ps"),
                ))
                .expect("shaper ready time overflow");
            Err(ready)
        }
    }

    /// Current credit (for inspection/tests), truncated to whole bytes.
    pub fn available(&mut self, now: SimTime) -> Bytes {
        self.refill(now);
        Bytes::new(u64::try_from(self.credit / (8 * BITPS)).expect("credit fits u64 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(gbps: u64, burst_kb: u64) -> TokenBucket {
        TokenBucket::new(BitRate::from_gbps(gbps), Bytes::from_kb(burst_kb))
    }

    #[test]
    fn starts_full_and_consumes() {
        let mut tb = bucket(2, 2);
        assert_eq!(tb.available(SimTime::ZERO), Bytes::from_kb(2));
        tb.try_consume(SimTime::ZERO, Bytes::new(1500)).unwrap();
        assert_eq!(tb.available(SimTime::ZERO), Bytes::new(500));
    }

    #[test]
    fn refuses_when_empty_and_reports_ready_time() {
        let mut tb = bucket(2, 2); // 2 Gbps, 2 KB burst
        tb.try_consume(SimTime::ZERO, Bytes::from_kb(2)).unwrap();
        let err = tb.try_consume(SimTime::ZERO, Bytes::new(1000)).unwrap_err();
        // 1000 bytes at 2 Gbps = 8000 bits / 2e9 = 4 us.
        assert_eq!(err, SimTime::from_us(4));
        // At the ready time, consumption succeeds.
        tb.try_consume(err, Bytes::new(1000)).unwrap();
    }

    #[test]
    fn sustained_rate_matches_configuration() {
        let mut tb = bucket(2, 2);
        let size = Bytes::new(1000);
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        // Drain then send paced for 1 ms.
        while now < SimTime::from_ms(1) {
            match tb.try_consume(now, size) {
                Ok(()) => sent += 1,
                Err(ready) => now = ready,
            }
        }
        // 2 Gbps for 1 ms = 250 KB = 250 packets (+burst 2).
        let expected = 250 + 2;
        assert!(
            (sent as i64 - expected).abs() <= 1,
            "sent {sent}, expected ~{expected}"
        );
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut tb = bucket(40, 3);
        // After a long idle period, credit is capped at burst.
        assert_eq!(tb.available(SimTime::from_ms(100)), Bytes::from_kb(3));
    }

    #[test]
    #[should_panic(expected = "larger than burst")]
    fn oversized_packet_panics() {
        let mut tb = bucket(2, 1);
        let _ = tb.try_consume(SimTime::ZERO, Bytes::from_kb(2));
    }

    #[test]
    fn ready_time_is_exact_not_early() {
        let mut tb = bucket(3, 2); // 3 Gbps: non-divisible rate
        tb.try_consume(SimTime::ZERO, Bytes::from_kb(2)).unwrap();
        let ready = tb.try_consume(SimTime::ZERO, Bytes::new(999)).unwrap_err();
        // One picosecond earlier must still fail.
        let early = ready - SimDuration::from_ps(1);
        assert!(tb.try_consume(early, Bytes::new(999)).is_err());
        tb.try_consume(ready, Bytes::new(999)).unwrap();
    }
}

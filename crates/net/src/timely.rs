//! TIMELY congestion control (Mittal et al., SIGCOMM 2015) — the second
//! transport the paper's §4 cites for "preventing PFC from being
//! generated".
//!
//! TIMELY needs no switch support at all: the sender reacts to the
//! *gradient* of measured RTTs. Rising RTTs (queues building) trigger
//! multiplicative decrease proportional to the normalized gradient;
//! RTTs below `t_low` trigger additive increase; RTTs above `t_high`
//! force a strong decrease regardless of gradient. The simulator feeds
//! per-packet RTT samples back to the source with the path's feedback
//! delay, exactly like DCQCN's CNPs.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::time::SimDuration;
use pfcsim_simcore::units::BitRate;

/// TIMELY parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelyConfig {
    /// Line rate / initial rate.
    pub line_rate: BitRate,
    /// Minimum rate clamp.
    pub min_rate: BitRate,
    /// EWMA weight for the RTT-difference filter.
    pub alpha: f64,
    /// Multiplicative-decrease factor `beta`.
    pub beta: f64,
    /// Additive increase step.
    pub rai: BitRate,
    /// RTTs below this are unambiguously uncongested (additive increase).
    pub t_low: SimDuration,
    /// RTTs above this force a decrease regardless of gradient.
    pub t_high: SimDuration,
    /// Expected minimum RTT, used to normalize the gradient.
    pub min_rtt: SimDuration,
    /// Consecutive increase-eligible samples before HAI mode (×5 step).
    pub hai_after: u32,
}

impl TimelyConfig {
    /// Defaults scaled for a 40 Gbps fabric with microsecond RTTs.
    pub fn for_line_rate(line_rate: BitRate) -> Self {
        TimelyConfig {
            line_rate,
            min_rate: BitRate::from_mbps(40),
            alpha: 0.46,
            beta: 0.26,
            rai: BitRate::from_mbps(100),
            t_low: SimDuration::from_us(8),
            t_high: SimDuration::from_us(60),
            min_rtt: SimDuration::from_us(4),
            hai_after: 5,
        }
    }
}

/// Per-flow sender state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelyState {
    /// Current sending rate.
    pub rate: BitRate,
    /// Previous RTT sample (ps).
    pub(crate) prev_rtt_ps: Option<u64>,
    /// Filtered RTT difference (ps).
    pub(crate) rtt_diff_ps: f64,
    /// Consecutive samples in the increase regime.
    pub(crate) increase_streak: u32,
}

impl TimelyState {
    /// Fresh state at line rate.
    pub fn new(cfg: &TimelyConfig) -> Self {
        TimelyState {
            rate: cfg.line_rate,
            prev_rtt_ps: None,
            rtt_diff_ps: 0.0,
            increase_streak: 0,
        }
    }

    /// Ingest one RTT sample and update the rate (the TIMELY main loop).
    pub fn on_rtt(&mut self, rtt: SimDuration, cfg: &TimelyConfig) {
        let rtt_ps = rtt.as_ps();
        let Some(prev) = self.prev_rtt_ps.replace(rtt_ps) else {
            return;
        };
        let new_diff = rtt_ps as f64 - prev as f64;
        self.rtt_diff_ps = (1.0 - cfg.alpha) * self.rtt_diff_ps + cfg.alpha * new_diff;
        let gradient = self.rtt_diff_ps / cfg.min_rtt.as_ps() as f64;

        let new_rate = if rtt < cfg.t_low {
            // Unambiguously uncongested.
            self.increase_streak += 1;
            let step = if self.increase_streak > cfg.hai_after {
                cfg.rai.bps() * 5
            } else {
                cfg.rai.bps()
            };
            self.rate.bps().saturating_add(step)
        } else if rtt > cfg.t_high {
            // Unambiguously congested: decrease toward the target.
            self.increase_streak = 0;
            let factor = 1.0 - cfg.beta * (1.0 - cfg.t_high.as_ps() as f64 / rtt_ps as f64);
            (self.rate.bps() as f64 * factor) as u64
        } else if gradient <= 0.0 {
            // Queues draining: probe upward.
            self.increase_streak += 1;
            let step = if self.increase_streak > cfg.hai_after {
                cfg.rai.bps() * 5
            } else {
                cfg.rai.bps()
            };
            self.rate.bps().saturating_add(step)
        } else {
            // Queues building: gradient-proportional decrease.
            self.increase_streak = 0;
            (self.rate.bps() as f64 * (1.0 - cfg.beta * gradient.min(1.0))) as u64
        };
        self.rate = BitRate::from_bps(new_rate.clamp(cfg.min_rate.bps(), cfg.line_rate.bps()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimelyConfig {
        TimelyConfig::for_line_rate(BitRate::from_gbps(40))
    }

    #[test]
    fn starts_at_line_rate_and_ignores_first_sample() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        s.on_rtt(SimDuration::from_us(100), &c);
        assert_eq!(s.rate, c.line_rate, "first sample only seeds prev_rtt");
    }

    #[test]
    fn rising_rtts_cut_rate() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        for us in [10u64, 20, 35, 50] {
            s.on_rtt(SimDuration::from_us(us), &c);
        }
        assert!(s.rate < c.line_rate, "rate {} must drop", s.rate);
    }

    #[test]
    fn rtt_above_t_high_always_decreases() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        s.on_rtt(SimDuration::from_us(100), &c);
        // Even a falling-but-huge RTT decreases.
        s.on_rtt(SimDuration::from_us(90), &c);
        assert!(s.rate < c.line_rate);
    }

    #[test]
    fn low_rtts_recover_rate() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        // Crash the rate first.
        for us in [10u64, 40, 70, 100, 100, 100] {
            s.on_rtt(SimDuration::from_us(us), &c);
        }
        let low = s.rate;
        assert!(low < c.line_rate);
        // Then a long stretch of low RTTs.
        for _ in 0..200 {
            s.on_rtt(SimDuration::from_us(5), &c);
        }
        assert!(s.rate > low, "additive increase must recover");
        assert!(s.rate <= c.line_rate);
    }

    #[test]
    fn rate_clamped_at_min() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        for us in 0..500u64 {
            s.on_rtt(SimDuration::from_us(100 + us), &c);
        }
        assert_eq!(s.rate, c.min_rate);
    }

    #[test]
    fn hyperactive_increase_after_streak() {
        let c = cfg();
        let mut s = TimelyState::new(&c);
        // Crash, then count increase per step before and after the streak.
        for us in [10u64, 50, 90, 120, 120] {
            s.on_rtt(SimDuration::from_us(us), &c);
        }
        let r0 = s.rate.bps();
        for _ in 0..c.hai_after {
            s.on_rtt(SimDuration::from_us(5), &c);
        }
        let early_step = (s.rate.bps() - r0) / c.hai_after as u64;
        let r1 = s.rate.bps();
        for _ in 0..3 {
            s.on_rtt(SimDuration::from_us(5), &c);
        }
        let late_step = (s.rate.bps() - r1) / 3;
        assert!(
            late_step > early_step,
            "HAI kicks in: {late_step} vs {early_step}"
        );
    }
}

//! Measurement recorders: time series, event logs, interval logs,
//! histograms and throughput meters.
//!
//! These are what the experiment harness uses to regenerate the paper's
//! plots: Fig. 3(c)/4(c)/5(b) are [`EventLog`]s of PAUSE emissions per link,
//! Fig. 3(d–g)/5(c–d) are [`TimeSeries`] of ingress-buffer occupancy.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};
use crate::units::Bytes;

/// A `(time, value)` sample stream with u64 values (bytes, counts, …).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<(SimTime, u64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample; times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: u64) {
        if let Some(&(last, _)) = self.samples.last() {
            debug_assert!(t >= last, "samples must be pushed in time order");
        }
        self.samples.push((t, v));
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[(SimTime, u64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest recorded value (0 for an empty series).
    pub fn max(&self) -> u64 {
        self.samples.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Smallest recorded value (0 for an empty series).
    pub fn min(&self) -> u64 {
        self.samples.iter().map(|&(_, v)| v).min().unwrap_or(0)
    }

    /// Arithmetic mean of values (0.0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Samples within `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.samples
            .iter()
            .copied()
            .filter(move |&(t, _)| t >= from && t < to)
    }

    /// Repeat the samples pushed since the series held `from` of them
    /// `k` more times, copy `j` shifted `j` periods later: the series a
    /// run would have recorded had it kept repeating that span. Room is
    /// left for one period more, which is at most what the run records
    /// after the repeats.
    pub fn extend_periods(&mut self, from: usize, k: u64, period: SimDuration) {
        let span = self.samples.len() - from;
        self.samples.reserve(span * (k as usize + 1));
        for j in 1..=k {
            let dt = period.saturating_mul(j);
            for i in from..from + span {
                let (t, v) = self.samples[i];
                self.samples.push((t + dt, v));
            }
        }
    }

    /// Fraction of samples in `[from, to)` whose value is ≥ `level`.
    pub fn fraction_at_or_above(&self, level: u64, from: SimTime, to: SimTime) -> f64 {
        let mut total = 0usize;
        let mut hit = 0usize;
        for (_, v) in self.window(from, to) {
            total += 1;
            if v >= level {
                hit += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// A log of timestamped point events (e.g. PFC PAUSE frame emissions).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    times: Vec<SimTime>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an occurrence.
    pub fn record(&mut self, t: SimTime) {
        if let Some(&last) = self.times.last() {
            debug_assert!(t >= last, "events must be recorded in time order");
        }
        self.times.push(t);
    }

    /// All occurrence times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Total number of occurrences.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// Occurrences in `[from, to)`.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> usize {
        self.times.iter().filter(|&&t| t >= from && t < to).count()
    }

    /// Time of the last occurrence, if any.
    pub fn last(&self) -> Option<SimTime> {
        self.times.last().copied()
    }

    /// [`TimeSeries::extend_periods`] for occurrences.
    pub fn extend_periods(&mut self, from: usize, k: u64, period: SimDuration) {
        let span = self.times.len() - from;
        self.times.reserve(span * (k as usize + 1));
        for j in 1..=k {
            let dt = period.saturating_mul(j);
            for i in from..from + span {
                let t = self.times[i];
                self.times.push(t + dt);
            }
        }
    }
}

/// A log of closed/open intervals, e.g. "link paused from t1 to t2".
/// An interval still open when the simulation ends has `end == None`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntervalLog {
    intervals: Vec<(SimTime, Option<SimTime>)>,
}

impl IntervalLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new interval at `t`.
    ///
    /// # Panics
    /// Panics if the previous interval is still open.
    pub fn open(&mut self, t: SimTime) {
        if let Some(&(_, end)) = self.intervals.last() {
            assert!(end.is_some(), "previous interval still open");
        }
        self.intervals.push((t, None));
    }

    /// Close the currently open interval at `t`.
    ///
    /// # Panics
    /// Panics if no interval is open.
    pub fn close(&mut self, t: SimTime) {
        let last = self.intervals.last_mut().expect("no interval to close");
        assert!(last.1.is_none(), "no open interval");
        assert!(t >= last.0, "interval closes before it opens");
        last.1 = Some(t);
    }

    /// True iff an interval is currently open.
    pub fn is_open(&self) -> bool {
        matches!(self.intervals.last(), Some(&(_, None)))
    }

    /// All intervals.
    pub fn intervals(&self) -> &[(SimTime, Option<SimTime>)] {
        &self.intervals
    }

    /// Number of intervals (open or closed).
    pub fn count(&self) -> usize {
        self.intervals.len()
    }

    /// Opens and closes recorded so far: two per closed interval, one
    /// for an open one.
    pub fn edges(&self) -> usize {
        2 * self.intervals.len() - usize::from(self.is_open())
    }

    /// [`TimeSeries::extend_periods`] for the opens and closes recorded
    /// since the log held `from` [`edges`](Self::edges). The log must be
    /// open now iff it was open then, so every copy starts where the one
    /// before it ends.
    ///
    /// # Panics
    /// Panics if the span holds an odd number of edges.
    pub fn extend_periods(&mut self, from: usize, k: u64, period: SimDuration) {
        let to = self.edges();
        assert!(
            (to - from).is_multiple_of(2),
            "a period opens as often as it closes"
        );
        let edge = |log: &Self, e: usize| {
            let (start, end) = log.intervals[e / 2];
            if e.is_multiple_of(2) {
                start
            } else {
                end.expect("a recorded close")
            }
        };
        let span: Vec<SimTime> = (from..to).map(|e| edge(self, e)).collect();
        for j in 1..=k {
            let dt = period.saturating_mul(j);
            for (i, &t) in span.iter().enumerate() {
                if (from + i).is_multiple_of(2) {
                    self.open(t + dt);
                } else {
                    self.close(t + dt);
                }
            }
        }
    }

    /// Total covered duration, treating an open interval as extending to `end_of_sim`.
    pub fn total_duration(&self, end_of_sim: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &(start, end) in &self.intervals {
            let end = end.unwrap_or(end_of_sim);
            if end > start {
                total += end - start;
            }
        }
        total
    }

    /// [`total_duration`](Self::total_duration) at `now`, given that it
    /// was `total_then` at `then`, when the first `closed` intervals were
    /// closed and every later one started at or after `then` or was still
    /// open: only the intervals from `closed` on are read, for what they
    /// cover after `then`.
    pub fn total_duration_since(
        &self,
        closed: usize,
        then: SimTime,
        total_then: SimDuration,
        now: SimTime,
    ) -> SimDuration {
        let mut total = total_then;
        for &(start, end) in &self.intervals[closed..] {
            let (start, end) = (start.max(then), end.unwrap_or(now));
            if end > start {
                total += end - start;
            }
        }
        total
    }

    /// True iff instant `t` is covered by some interval (open intervals are
    /// treated as unbounded on the right).
    pub fn covers(&self, t: SimTime) -> bool {
        self.intervals
            .iter()
            .any(|&(s, e)| t >= s && e.is_none_or(|e| t < e))
    }
}

/// A bounded `(time, value)` sample ring: keeps the most recent
/// `capacity` samples and evicts the oldest ones as new samples arrive.
///
/// The telemetry layer records every probe into one of these, so a long
/// run's memory stays bounded no matter how fine the sampling cadence:
/// the ring always holds the trailing window, and [`RingSeries::pushed`]
/// says how many samples were ever recorded (the difference was evicted).
/// Values are `f64` because probes mix units (ratios, bytes, bits/s).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingSeries {
    capacity: usize,
    samples: std::collections::VecDeque<(SimTime, f64)>,
    pushed: u64,
}

impl RingSeries {
    /// An empty ring holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSeries {
            capacity,
            samples: std::collections::VecDeque::with_capacity(capacity.min(1024)),
            pushed: 0,
        }
    }

    /// Append a sample, evicting the oldest if the ring is full.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.samples.back() {
            debug_assert!(t >= last, "samples must be pushed in time order");
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((t, v));
        self.pushed += 1;
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples ever pushed (≥ [`RingSeries::len`]; the difference
    /// was evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The ring after `k` more repetitions of the samples pushed since
    /// [`pushed`](Self::pushed) was `from`: copy `j` is shifted `j`
    /// periods later and, when `step` is non-zero, `j * step` higher (a
    /// counter that grows by `step` per period). Only the copies the ring
    /// would retain are built.
    pub fn extend_periods(&mut self, from: u64, k: u64, period: SimDuration, step: f64) {
        let span = (self.pushed - from) as usize;
        if span == 0 || k == 0 {
            return;
        }
        let len = self.samples.len();
        // The span's samples are still retained unless the ring is full,
        // in which case only its retained tail is needed.
        debug_assert!(span <= len || len == self.capacity);
        let total = len as u64 + k * span as u64;
        let keep = total.min(self.capacity as u64);
        let mut out = std::collections::VecDeque::with_capacity(keep as usize);
        for pos in total - keep..total {
            if pos < len as u64 {
                out.push_back(self.samples[pos as usize]);
                continue;
            }
            let p = pos - len as u64;
            let j = p / span as u64 + 1;
            let (t, v) = self.samples[len + (p % span as u64) as usize - span];
            let v = if step == 0.0 { v } else { v + j as f64 * step };
            out.push_back((t + period.saturating_mul(j), v));
        }
        self.samples = out;
        self.pushed += k * span as u64;
    }

    /// Most recent sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.back().copied()
    }

    /// Largest retained value (`0.0` for an empty ring).
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Arithmetic mean of retained values (`0.0` for an empty ring).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }
}

/// A fixed-bucket histogram over u64 values (e.g. queue depths, latencies).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `n_buckets` buckets of `bucket_width` each; values beyond the last
    /// bucket land in an overflow counter.
    pub fn new(bucket_width: u64, n_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        Histogram {
            bucket_width,
            counts: vec![0; n_buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Total observations (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i` (covering `[i*w, (i+1)*w)`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Observations beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate p-quantile (0.0–1.0) by bucket upper bound.
    pub fn quantile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        let target = (p * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        u64::MAX
    }
}

/// Accumulates delivered bytes and converts to average goodput.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputMeter {
    bytes: Bytes,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl ThroughputMeter {
    /// Empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a delivery of `size` completing at `t`.
    pub fn record(&mut self, t: SimTime, size: Bytes) {
        self.bytes += size;
        if self.first.is_none() {
            self.first = Some(t);
        }
        self.last = Some(t);
    }

    /// Fold a contiguous batch of deliveries spanning `[first, last]` and
    /// totalling `bytes` into the meter in one step — the closed-form
    /// equivalent of many in-order `record` calls. Min/max-merging the
    /// window keeps the meter exact even when the batch precedes or
    /// follows deliveries that were recorded individually.
    pub fn record_span(&mut self, first: SimTime, last: SimTime, bytes: Bytes) {
        debug_assert!(first <= last, "span must be ordered");
        self.bytes += bytes;
        self.first = Some(self.first.map_or(first, |f| f.min(first)));
        self.last = Some(self.last.map_or(last, |l| l.max(last)));
    }

    /// The meter after `k` more periods like the one since it read
    /// `mark`: each adds the same bytes, and moves the last delivery one
    /// period later if the period delivered anything.
    pub fn extend_periods(&mut self, mark: &ThroughputMeter, k: u64, period: SimDuration) {
        let per = self.bytes.get() - mark.bytes.get();
        if per > 0 {
            self.bytes = Bytes::new(self.bytes.get() + k * per);
            self.last = self.last.map(|t| t + period.saturating_mul(k));
        }
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> Bytes {
        self.bytes
    }

    /// Average rate in bits/second over `[start, end]`; `None` if no traffic
    /// or a zero-length window.
    pub fn average_bps(&self, start: SimTime, end: SimTime) -> Option<f64> {
        if end <= start || self.bytes.is_zero() {
            return None;
        }
        let dt = (end - start).as_secs_f64();
        Some(self.bytes.bits() as f64 / dt)
    }

    /// Time of last delivery.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_stats() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_us(1), 10);
        s.push(SimTime::from_us(2), 30);
        s.push(SimTime::from_us(3), 20);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max(), 30);
        assert_eq!(s.min(), 10);
        assert!((s.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn time_series_window_and_fraction() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(SimTime::from_us(i), i * 10);
        }
        let w: Vec<_> = s.window(SimTime::from_us(3), SimTime::from_us(6)).collect();
        assert_eq!(w.len(), 3);
        let f = s.fraction_at_or_above(50, SimTime::ZERO, SimTime::from_us(10));
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_series_defaults() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.fraction_at_or_above(1, SimTime::ZERO, SimTime::MAX), 0.0);
    }

    #[test]
    fn event_log_counts() {
        let mut l = EventLog::new();
        for i in [1u64, 2, 5, 9] {
            l.record(SimTime::from_us(i));
        }
        assert_eq!(l.count(), 4);
        assert_eq!(l.count_in(SimTime::from_us(2), SimTime::from_us(9)), 2);
        assert_eq!(l.last(), Some(SimTime::from_us(9)));
    }

    #[test]
    fn interval_log_lifecycle() {
        let mut l = IntervalLog::new();
        assert!(!l.is_open());
        l.open(SimTime::from_us(1));
        assert!(l.is_open());
        l.close(SimTime::from_us(3));
        l.open(SimTime::from_us(5));
        assert_eq!(l.count(), 2);
        // Open interval extends to end of sim.
        let total = l.total_duration(SimTime::from_us(8));
        assert_eq!(total.as_us(), 2 + 3);
        assert!(l.covers(SimTime::from_us(2)));
        assert!(!l.covers(SimTime::from_us(4)));
        assert!(l.covers(SimTime::from_us(100))); // still open
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn interval_double_open_panics() {
        let mut l = IntervalLog::new();
        l.open(SimTime::from_us(1));
        l.open(SimTime::from_us(2));
    }

    #[test]
    #[should_panic(expected = "no interval to close")]
    fn interval_close_without_open_panics() {
        let mut l = IntervalLog::new();
        l.close(SimTime::from_us(1));
    }

    #[test]
    fn ring_series_evicts_oldest() {
        let mut r = RingSeries::with_capacity(3);
        for i in 1..=5u64 {
            r.push(SimTime::from_us(i), i as f64);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.pushed(), 5);
        let kept: Vec<f64> = r.iter().map(|(_, v)| v).collect();
        assert_eq!(kept, vec![3.0, 4.0, 5.0]);
        assert_eq!(r.last(), Some((SimTime::from_us(5), 5.0)));
        assert!((r.mean() - 4.0).abs() < 1e-12);
        assert!((r.max() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ring_series_round_trips_through_value() {
        let mut r = RingSeries::with_capacity(8);
        r.push(SimTime::from_us(1), 0.5);
        r.push(SimTime::from_us(2), 1.5);
        let v = r.to_value();
        let back = RingSeries::from_value(&v).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.capacity(), 8);
        assert_eq!(back.last(), Some((SimTime::from_us(2), 1.5)));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.bucket(0), 10);
        assert_eq!(h.bucket(9), 10);
        assert_eq!(h.overflow(), 0);
        h.record(1_000);
        assert_eq!(h.overflow(), 1);
        let med = h.quantile(0.5);
        assert!((40..=60).contains(&med), "median {med}");
    }

    #[test]
    fn throughput_meter_average() {
        let mut m = ThroughputMeter::new();
        // 1000 bytes per us for 10 us = 8 Gbps.
        for i in 1..=10u64 {
            m.record(SimTime::from_us(i), Bytes::new(1000));
        }
        let bps = m.average_bps(SimTime::ZERO, SimTime::from_us(10)).unwrap();
        assert!((bps - 8e9).abs() / 8e9 < 1e-9);
        assert_eq!(m.total_bytes(), Bytes::new(10_000));
        assert_eq!(m.last_delivery(), Some(SimTime::from_us(10)));
        assert!(m.average_bps(SimTime::ZERO, SimTime::ZERO).is_none());
    }
}

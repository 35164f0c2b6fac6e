//! Order statistics over timing samples.

/// Sorted copy of `xs` (timings are never NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are not NaN"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let v = sorted(xs);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, first and third quartile, and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
            n: xs.len(),
        }
    }

    /// A value that is not a distribution (a count, a ratio of medians).
    pub fn point(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x,
            q3: x,
            n: 1,
        }
    }
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, with its label; `None` under 100 samples, where
/// not even p90 has ten.
pub fn tail_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    let v = sorted(xs);
    for (label, share) in [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ] {
        // Index of the percentile in the sorted samples; everything
        // after it lies beyond.
        let idx = (share * v.len() as f64).ceil() as usize;
        if idx < v.len() && v.len() - idx >= 10 {
            return Some((label, v[idx.saturating_sub(1)]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&xs(99)), None);
        // 100 samples: ten lie beyond p90, one beyond p99.
        assert_eq!(tail_percentile(&xs(100)), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(&xs(200)), Some(("p95", 190.0)));
        assert_eq!(tail_percentile(&xs(1500)), Some(("p99", 1485.0)));
        assert_eq!(tail_percentile(&xs(10_000)), Some(("p99.9", 9990.0)));
    }
}
